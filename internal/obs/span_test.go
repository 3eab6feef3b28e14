package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanRecordsIntoRegistryAndRecorder(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, rec := WithTraceRecorder(ctx, false)

	_, sp := startSpan(ctx, phaseTidy)
	sp.end()

	h := r.Histogram(PhaseSeries("tidy"))
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "tidy" {
		t.Fatalf("spans = %+v, want one 'tidy' span", spans)
	}
	if spans[0].DurationNS < 0 {
		t.Errorf("negative duration %d", spans[0].DurationNS)
	}
	if sp.dur <= 0 {
		t.Errorf("duration = %v, want > 0", sp.dur)
	}
}

func TestSpanNesting(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	ctx, rec := WithTraceRecorder(ctx, false)

	ctx1, parent := startSpan(ctx, phaseParse)
	ctx2, child := startSpan(ctx1, phaseTokenize)
	_, grandchild := startSpan(ctx2, phaseEntities)
	grandchild.end()
	child.end()
	// A sibling started from the parent's context nests under "parse",
	// not under the already-ended "tokenize".
	_, sibling := startSpan(ctx1, phaseTidy)
	sibling.end()
	parent.end()

	byName := map[string]PhaseSample{}
	for _, s := range rec.Spans() {
		byName[s.Name] = s
	}
	checks := []struct {
		name, parent string
		depth        int
	}{
		{"parse", "", 0},
		{"tokenize", "parse", 1},
		{"entities", "tokenize", 2},
		{"tidy", "parse", 1},
	}
	for _, c := range checks {
		got, ok := byName[c.name]
		if !ok {
			t.Errorf("span %q not recorded", c.name)
			continue
		}
		if got.Parent != c.parent || got.Depth != c.depth {
			t.Errorf("span %q: parent=%q depth=%d, want parent=%q depth=%d",
				c.name, got.Parent, got.Depth, c.parent, c.depth)
		}
	}
	// Completion order: children end before parents.
	spans := rec.Spans()
	if spans[len(spans)-1].Name != "parse" {
		t.Errorf("last completed span = %q, want parse", spans[len(spans)-1].Name)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	ctx, rec := WithTraceRecorder(ctx, false)
	_, sp := startSpan(ctx, phaseX)
	sp.end()
	sp.end()
	if n := len(rec.Spans()); n != 1 {
		t.Errorf("double End recorded %d spans, want 1", n)
	}
	var nilSpan *span
	nilSpan.end() // must not panic
}

// allocSink keeps test allocations observable to the span's memstats delta.
var allocSink []byte

func TestSpanAllocSampling(t *testing.T) {
	ctx, rec := WithTraceRecorder(context.Background(), true)
	_, sp := startSpan(ctx, phaseAlloc)
	allocSink = make([]byte, 1<<20)
	sp.end()
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d, want >= 1MiB", spans[0].AllocBytes)
	}
	if spans[0].Allocs < 1 {
		t.Errorf("Allocs = %d, want >= 1", spans[0].Allocs)
	}
}

func TestSpanWithoutRecorderStillObserves(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	_, sp := startSpan(ctx, phaseSolo)
	sp.end()
	if r.Histogram(PhaseSeries("solo")).Count() != 1 {
		t.Error("span without recorder did not feed the registry histogram")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `omini_phase_seconds_count{phase="solo"} 1`) {
		t.Errorf("exposition missing solo phase:\n%s", b.String())
	}
}

// TestFinishHandsOffRecordedState: Finish returns what was recorded,
// in a span slice that did not grow, and reports made after it do not
// reach the handed-off state.
func TestFinishHandsOffRecordedState(t *testing.T) {
	ctx, rec := WithTraceRecorder(WithRegistry(context.Background(), NewRegistry()), false)
	for i := 0; i < recorderSpans; i++ {
		_, sp := startSpan(ctx, phaseTidy)
		sp.end()
	}
	if cap(rec.spans) != recorderSpans {
		t.Errorf("span slice grew to cap %d within %d spans", cap(rec.spans), recorderSpans)
	}
	rec.spans = rec.spans[:3]
	rec.Annotate("path", "fast")
	rec.SetCharge("tokens", 7)
	spans, attrs, charges := rec.Finish()
	if len(spans) != 3 || attrs["path"] != "fast" || charges["tokens"] != 7 {
		t.Fatalf("Finish = %d spans, %v, %v", len(spans), attrs, charges)
	}
	_, late := startSpan(ctx, phaseSubtree)
	late.end()
	rec.Annotate("late", "x")
	rec.SetCharge("nodes", 1)
	if spans[:4][3].Name == "subtree" || len(attrs) != 1 || len(charges) != 1 {
		t.Errorf("reports after Finish reached the handed-off state: %v, %v, %v", spans[:4], attrs, charges)
	}
}
