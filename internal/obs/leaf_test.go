package obs

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestStartLeafMatchesStartSpan: a Leaf span records what a Run span
// records — the histogram observation, and on a trace the same name,
// parent, depth and parent span ID — whether it runs under a Run span
// or at the trace root; and a leaf inherits a declined decision as a
// Run span's context does.
func TestStartLeafMatchesStartSpan(t *testing.T) {
	r := NewRegistry()
	ctx, rec := WithTraceRecorder(WithRegistry(context.Background(), r), false)
	for _, under := range []string{"root", "parse"} {
		both := func(pctx context.Context) {
			Run(pctx, phaseTidy, func(context.Context) {})
			Leaf(pctx, phaseTidy, func() {})
		}
		if under == "parse" {
			Run(ctx, phaseParse, both)
		} else {
			both(ctx)
		}

		spans := rec.Spans()
		var got []PhaseSample
		for _, s := range spans {
			if s.Name == "tidy" {
				got = append(got, s)
			}
		}
		if len(got) != 2 {
			t.Fatalf("under %s: %d tidy spans, want 2: %+v", under, len(got), spans)
		}
		a, b := got[0], got[1]
		if a.Parent != b.Parent || a.Depth != b.Depth || a.ParentSpanID != b.ParentSpanID {
			t.Errorf("under %s: Run recorded %+v, Leaf %+v", under, a, b)
		}
		if a.SpanID == b.SpanID || b.SpanID.IsZero() {
			t.Errorf("under %s: leaf span ID %s (Run's %s)", under, b.SpanID, a.SpanID)
		}
		rec.Finish()
	}
	if n := r.Histogram(PhaseSeries("tidy")).Count(); n != 4 {
		t.Errorf("tidy histogram count = %d, want 4", n)
	}

	// A declined request's leaf (Leaf starts it with startLeaf) forwards
	// the decision like a Run span does.
	dctx, b := Enter(context.Background(), httptest.NewRecorder(), http.Header{}, url.Values{}, phaseOuter, NewSampler(-1), nil, nil)
	leaf := startLeaf(dctx, phaseInner)
	var child *span
	Run(dctx, phaseInner, func(c context.Context) { child, _ = c.Value(stateKey{}).(*span) })
	if child == nil || !leaf.declined || leaf.declined != child.declined {
		t.Errorf("declined: leaf %v, Run span %+v, want both declined", leaf.declined, child)
	}
	leaf.end()
	b.End()
}

// TestStartLeafAllocs: a Leaf span costs nothing to run, and a Run
// span costs its span and the context that carries it.
func TestStartLeafAllocs(t *testing.T) {
	ctx := WithRegistry(context.Background(), NewRegistry())
	Run(ctx, phaseParse, func(ctx context.Context) {
		n := 0
		if allocs := testing.AllocsPerRun(100, func() { Leaf(ctx, phaseTidy, func() { n++ }) }); allocs != 0 {
			t.Errorf("Leaf: %v allocs per run, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { Run(ctx, phaseTidy, func(context.Context) { n++ }) }); allocs != 2 {
			t.Errorf("Run: %v allocs per run, want 2", allocs)
		}
	})
}

// TestDecisionsWanted: WithTraceRecorder callers read the decision
// trace; an inbound request wants it only with ?trace=1.
func TestDecisionsWanted(t *testing.T) {
	if _, rec := WithTraceRecorder(context.Background(), false); !rec.WantsDecisions() {
		t.Error("WithTraceRecorder: recorder does not want decisions")
	}
	if (*TraceRecorder)(nil).WantsDecisions() {
		t.Error("nil recorder wants decisions")
	}
	for query, want := range map[string]bool{"": false, "trace=0": false, "trace=1": true, "trace=yes": true} {
		q, _ := url.ParseQuery(query)
		ctx, b := Enter(context.Background(), httptest.NewRecorder(), http.Header{}, q, phaseOuter, nil, nil, nil)
		if got := TraceRecorderFrom(ctx).WantsDecisions(); got != want {
			t.Errorf("?%s: sampled recorder wants decisions = %v, want %v", query, got, want)
		}
		b.End()
	}
}

// TestLogFieldsMatchesLog: a record of typed fields is the line Log
// writes for the same keys and values, which the reference encoder
// checks in turn — on the map path (NaN) and on duplicate keys too.
func TestLogFieldsMatchesLog(t *testing.T) {
	tid := NewTraceID()
	cases := []struct {
		fields []Field
		kv     []any
	}{
		{nil, nil},
		{
			[]Field{String("method", "POST"), String("path", "/extract"), Int("status", 200), Float64("durMs", 0.412),
				TraceIDField("trace", tid), String("site", "<a&b> \xff"), Int("objects", -3), Bool("fromRule", true),
				Bool("cold", false), Float64("confidence", 1e-7), Float64("big", 1e21), Float64("neg", math.Copysign(0, -1))},
			[]any{"method", "POST", "path", "/extract", "status", 200, "durMs", 0.412,
				"trace", tid, "site", "<a&b> \xff", "objects", -3, "fromRule", true,
				"cold", false, "confidence", 1e-7, "big", 1e21, "neg", math.Copysign(0, -1)},
		},
		{
			[]Field{String("msg", "mine"), Int("k", 1), String("k", "last"), String("ts", "x")},
			[]any{"msg", "mine", "k", 1, "k", "last", "ts", "x"},
		},
		{
			[]Field{Float64("nan", math.NaN()), String("s", "v"), Int("neg", -7), Bool("b", true), TraceIDField("t", tid)},
			[]any{"nan", math.NaN(), "s", "v", "neg", -7, "b", true, "t", tid},
		},
		{
			[]Field{Float64("inf", math.Inf(-1)), TraceIDField("zero", TraceID{})},
			[]any{"inf", math.Inf(-1), "zero", TraceID{}},
		},
	}
	for _, c := range cases {
		var b strings.Builder
		l := NewLogger(&b, LevelDebug)
		l.now = func() time.Time { return logTestNow }
		l.LogFields(LevelWarn, "request", c.fields...)
		got, want := b.String(), logLine(logTestNow, LevelWarn, "request", c.kv...)
		if got != want {
			t.Errorf("LogFields:\n got %s\nwant %s", got, want)
		}
		if ref := referenceLine(logTestNow, LevelWarn, "request", c.kv...); want != ref {
			t.Errorf("Log:\n got %s\nwant %s", want, ref)
		}
	}
}

// TestLogFieldsAllocs: an access line of typed fields allocates
// nothing once the line buffer pool is warm.
func TestLogFieldsAllocs(t *testing.T) {
	l := NewLogger(io.Discard, LevelInfo)
	tid := NewTraceID()
	line := func() {
		l.LogFields(LevelInfo, "request",
			String("method", "POST"), String("path", "/extract"), Int("status", 200), Float64("durMs", 0.412),
			TraceIDField("trace", tid), String("site", "www.amazon.example"), String("subtree", "html[1].body[1].table[2]"),
			String("separator", "tr"), Int("objects", 10), Bool("fromRule", true), Float64("confidence", 0.8731))
	}
	line()
	if n := testing.AllocsPerRun(200, line); n != 0 {
		t.Errorf("LogFields of an access line: %v allocs, want 0", n)
	}
}
