package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), Sampled: true}
	sc.SpanID[7] = 0x2a
	got, err := ParseTraceHeader(sc.Header())
	if err != nil {
		t.Fatalf("ParseTraceHeader(%q): %v", sc.Header(), err)
	}
	if got != sc {
		t.Errorf("round trip = %+v, want %+v", got, sc)
	}
	if !got.Valid() {
		t.Error("round-tripped context should be valid")
	}

	// The unsampled flag survives too.
	sc.Sampled = false
	got, err = ParseTraceHeader(sc.Header())
	if err != nil {
		t.Fatalf("ParseTraceHeader: %v", err)
	}
	if got.Sampled {
		t.Error("sampled = true, want false")
	}
}

func TestParseTraceHeaderAbsentAndMalformed(t *testing.T) {
	sc, err := ParseTraceHeader("")
	if err != nil {
		t.Fatalf("empty header: %v", err)
	}
	if sc.Valid() {
		t.Error("empty header should yield an invalid context")
	}

	bad := []string{
		"00",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-00000000000000aa-01", // zero trace id
		"00-" + strings.Repeat("g", 32) + "-00000000000000aa-01", // non-hex
		"00-" + strings.Repeat("a", 32) + "-00000000000000aa-zz",
		"0-" + strings.Repeat("a", 32) + "-00000000000000aa-01",
	}
	for _, h := range bad {
		if _, err := ParseTraceHeader(h); err == nil {
			t.Errorf("ParseTraceHeader(%q) = nil error, want reject", h)
		}
	}
}

func TestSamplerRates(t *testing.T) {
	var nilSampler *Sampler
	if !nilSampler.Sample() {
		t.Error("nil sampler should sample everything")
	}
	if !NewSampler(1).Sample() || !NewSampler(2).Sample() {
		t.Error("rate >= 1 should sample everything")
	}
	if NewSampler(0).Sample() || NewSampler(-1).Sample() {
		t.Error("rate <= 0 should sample nothing")
	}
	hits := 0
	s := NewSampler(0.5)
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits == 0 || hits == 1000 {
		t.Errorf("rate 0.5 sampled %d/1000, want a strict fraction", hits)
	}
}

// TestTraceSinkMerge checks the cluster self-serve shape: the route half
// and the handler half of one trace ID merge into a single trace with
// the route half's view outermost.
func TestTraceSinkMerge(t *testing.T) {
	sink := NewTraceSink(8)
	id := NewTraceID()
	sink.Record(&TraceData{
		TraceSummary: TraceSummary{TraceID: id, Op: "/extract", Site: "example.com", Status: 200, DurationNS: 100},
		Attrs:        map[string]string{"path": "fast"},
		Charges:      map[string]int64{"tokens": 7},
		Spans:        []PhaseSample{{Name: "handler"}},
	})
	sink.Record(&TraceData{
		TraceSummary: TraceSummary{TraceID: id, Op: "route", Node: "a", DurationNS: 250},
		Spans:        []PhaseSample{{Name: "route"}, {Name: "hop"}},
	})

	if sink.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", sink.Len())
	}
	got, ok := sink.Get(id)
	if !ok {
		t.Fatalf("Get(%s) missed", id)
	}
	if got.Op != "route" {
		t.Errorf("Op = %q, want the route half to win as outermost", got.Op)
	}
	if got.Node != "a" || got.Site != "example.com" || got.Status != 200 {
		t.Errorf("merged scalars = %+v", got.TraceSummary)
	}
	if got.DurationNS != 250 {
		t.Errorf("DurationNS = %d, want the larger half (250)", got.DurationNS)
	}
	if len(got.Spans) != 3 || got.SpanCount != 3 {
		t.Errorf("spans = %d (count %d), want 3 merged", len(got.Spans), got.SpanCount)
	}
	if got.Attrs["path"] != "fast" || got.Charges["tokens"] != 7 {
		t.Errorf("attrs/charges lost in merge: %+v / %+v", got.Attrs, got.Charges)
	}
}

// TestTraceSinkTailSampling churns a small sink far past capacity and
// checks the tail-sampling pins: errored traces and the slowest-N
// survive while ordinary traces are evicted.
func TestTraceSinkTailSampling(t *testing.T) {
	const capacity = 16
	sink := NewTraceSink(capacity)

	erroredID := testID(1)
	sink.Record(&TraceData{TraceSummary: TraceSummary{TraceID: erroredID, Status: 504, DurationNS: 10}})
	slowIDs := make([]TraceID, 0, 4)
	for i := 0; i < 4; i++ {
		id := testID(100 + i)
		slowIDs = append(slowIDs, id)
		sink.Record(&TraceData{TraceSummary: TraceSummary{TraceID: id, Status: 200, DurationNS: int64(time.Second) * int64(10+i)}})
	}

	evicted := 0
	for i := 0; i < 500; i++ {
		evicted += sink.Record(&TraceData{TraceSummary: TraceSummary{
			TraceID:    testID(1000 + i),
			Status:     200,
			DurationNS: int64(i), // all faster than the slow set
		}})
	}

	if sink.Len() != capacity {
		t.Errorf("Len = %d, want the bound %d to hold", sink.Len(), capacity)
	}
	if evicted == 0 {
		t.Error("churn past capacity should report evictions")
	}
	if _, ok := sink.Get(erroredID); !ok {
		t.Error("errored trace was evicted; tail sampling must pin failures")
	}
	for _, id := range slowIDs {
		if _, ok := sink.Get(id); !ok {
			t.Errorf("slow trace %s was evicted; tail sampling must pin the slowest-N", id)
		}
	}
	// The newest ordinary trace should still be present (it just arrived).
	if _, ok := sink.Get(testID(1499)); !ok {
		t.Error("the newest trace should survive its own insertion")
	}

	list := sink.List()
	if len(list) != capacity {
		t.Fatalf("List len = %d, want %d", len(list), capacity)
	}
	if list[len(list)-1].TraceID != erroredID {
		t.Errorf("List should be newest-first; oldest surviving = %s, want the pinned errored trace", list[len(list)-1].TraceID)
	}
}

func TestTraceSinkNilSafety(t *testing.T) {
	var sink *TraceSink
	if n := sink.Record(&TraceData{TraceSummary: TraceSummary{TraceID: NewTraceID()}}); n != 0 {
		t.Errorf("nil sink Record = %d, want 0", n)
	}
	if sink.Len() != 0 || sink.Capacity() != 0 || sink.List() != nil {
		t.Error("nil sink accessors should be zero-valued")
	}
	if _, ok := sink.Get(NewTraceID()); ok {
		t.Error("nil sink Get should miss")
	}
}

// TestStartTraceAdoptsUpstreamIdentity checks cross-node parenting: a
// local root span under an adopted SpanContext parents to the remote
// span ID, and nested spans parent locally.
func TestStartTraceAdoptsUpstreamIdentity(t *testing.T) {
	upstream := SpanContext{TraceID: NewTraceID(), Sampled: true}
	upstream.SpanID[0] = 0xbe

	ctx := WithRegistry(context.Background(), NewRegistry())
	ctx, rec := StartTrace(ctx, upstream, false)
	if rec.TraceID() != upstream.TraceID {
		t.Errorf("TraceID = %s, want adopted %s", rec.TraceID(), upstream.TraceID)
	}

	ctx1, root := startSpan(ctx, phaseHandler)
	_, child := startSpan(ctx1, phaseFarmSlow)
	child.end()
	root.end()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootSample, childSample PhaseSample
	for _, s := range spans {
		switch s.Name {
		case "handler":
			rootSample = s
		case "farm.slow":
			childSample = s
		}
	}
	if rootSample.ParentSpanID != upstream.SpanID {
		t.Errorf("root parent = %q, want the remote span %q", rootSample.ParentSpanID, upstream.SpanID)
	}
	if childSample.ParentSpanID != rootSample.SpanID {
		t.Errorf("child parent = %q, want the root span %q", childSample.ParentSpanID, rootSample.SpanID)
	}
	if rootSample.SpanID == childSample.SpanID || rootSample.SpanID.IsZero() {
		t.Errorf("span IDs must be unique and non-empty: %q vs %q", rootSample.SpanID, childSample.SpanID)
	}

	// The open child span's propagation context names itself as parent.
	ctx2, open := startSpan(ctx1, phaseHop)
	sc := SpanContextFrom(ctx2)
	if !sc.Valid() || sc.SpanID != open.id || sc.TraceID != upstream.TraceID || !sc.Sampled {
		t.Errorf("SpanContextFrom = %+v, want the open span's identity", sc)
	}
	open.end()
}

func TestStartTraceMintsIDWhenZero(t *testing.T) {
	_, rec := WithTraceRecorder(context.Background(), false)
	if rec.TraceID().IsZero() {
		t.Error("WithTraceRecorder must mint a non-zero trace ID")
	}
}

func TestObserveExemplarExposition(t *testing.T) {
	r := NewRegistry()
	tid := NewTraceID()
	testFast.ObserveExemplar(r, 0.002, tid)
	testFast.ObserveExemplar(r, 0.004, TraceID{}) // untraced: plain observe

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := fmt.Sprintf("# {trace_id=%q}", tid.String())
	if !strings.Contains(out, want) {
		t.Errorf("exposition lacks exemplar %s:\n%s", want, out)
	}
	if h := r.Histogram("serve.fast_seconds"); h.Count() != 2 {
		t.Errorf("Count = %d, want both observations recorded", h.Count())
	}

	// The suffix must not disturb field-splitting parsers: the bucket
	// sample value stays field two.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "trace_id") {
			fields := strings.Fields(line)
			if len(fields) < 3 || fields[2] != "#" {
				t.Errorf("exemplar suffix must start at field 3: %q", line)
			}
		}
	}
}
