package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The trace types as they were while IDs were hex strings. The binary
// IDs must encode to exactly their bytes.
type stringPhaseSample struct {
	Name         string `json:"name"`
	Parent       string `json:"parent,omitempty"`
	Depth        int    `json:"depth"`
	DurationNS   int64  `json:"durationNs"`
	SpanID       string `json:"spanId,omitempty"`
	ParentSpanID string `json:"parentSpanId,omitempty"`
	StartNS      int64  `json:"startNs,omitempty"`
	AllocBytes   int64  `json:"allocBytes,omitempty"`
	Allocs       int64  `json:"allocs,omitempty"`
}

type stringTraceSummary struct {
	TraceID    string    `json:"traceId"`
	Node       string    `json:"node,omitempty"`
	Op         string    `json:"op,omitempty"`
	Site       string    `json:"site,omitempty"`
	Path       string    `json:"path,omitempty"`
	Status     int       `json:"status,omitempty"`
	Error      string    `json:"error,omitempty"`
	StartedAt  time.Time `json:"startedAt"`
	DurationNS int64     `json:"durationNs"`
	SpanCount  int       `json:"spanCount"`
}

type stringTraceData struct {
	stringTraceSummary
	Attrs   map[string]string   `json:"attrs,omitempty"`
	Charges map[string]int64    `json:"governorCharges,omitempty"`
	Spans   []stringPhaseSample `json:"spans,omitempty"`
}

type stringDecisionTrace struct {
	TraceID           string              `json:"traceId,omitempty"`
	SubtreePath       string              `json:"subtreePath"`
	SubtreeRanking    []RankedItem        `json:"subtreeRanking,omitempty"`
	SeparatorRankings []Ranking           `json:"separatorRankings,omitempty"`
	Combined          []RankedItem        `json:"combined,omitempty"`
	Separator         string              `json:"separator"`
	Confidence        float64             `json:"confidence"`
	FromRule          bool                `json:"fromRule,omitempty"`
	Objects           int                 `json:"objects"`
	Phases            []stringPhaseSample `json:"phases,omitempty"`
	Charges           map[string]int64    `json:"governorCharges,omitempty"`
}

// hexOf is how the string-typed code rendered an ID: hex, or "" for
// an absent one.
func hexOf(id interface {
	IsZero() bool
	String() string
}) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}

func stringSample(s PhaseSample) stringPhaseSample {
	return stringPhaseSample{s.Name, s.Parent, s.Depth, s.DurationNS, hexOf(s.SpanID), hexOf(s.ParentSpanID), s.StartNS, s.AllocBytes, s.Allocs}
}

func stringSamples(in []PhaseSample) []stringPhaseSample {
	var out []stringPhaseSample
	for _, s := range in {
		out = append(out, stringSample(s))
	}
	return out
}

func stringSummary(t TraceSummary) stringTraceSummary {
	return stringTraceSummary{hexOf(t.TraceID), t.Node, t.Op, t.Site, t.Path, t.Status, t.Error, t.StartedAt, t.DurationNS, t.SpanCount}
}

// sameJSON marshals the binary and the string-typed value, compares
// the bytes, then checks the binary value survives a json.Unmarshal.
func sameJSON[T any](t *testing.T, name string, v T, old any) {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := json.Marshal(old)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", name, got, want)
	}
	var back T
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("%s: unmarshal %s: %v", name, got, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("%s: round trip = %+v, want %+v", name, back, v)
	}
}

func TestTraceTypesEncodeAsHexStrings(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	root := SpanID{0, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	child := SpanID{0xff, 0, 0, 0, 0, 0, 0, 1}
	started := time.Date(2026, 8, 5, 12, 0, 0, 123456789, time.UTC)
	samples := [][]PhaseSample{
		nil,
		{{Name: "untraced", Depth: 0, DurationNS: 10}},
		{
			{Name: "handler", DurationNS: 900, SpanID: root, StartNS: 0},
			{Name: "tidy", Parent: "handler", Depth: 1, DurationNS: 120, SpanID: child, ParentSpanID: root, StartNS: 40, AllocBytes: 4096, Allocs: 12},
			{Name: "remote-root", DurationNS: 5, SpanID: root, ParentSpanID: child},
		},
	}
	for _, id := range []TraceID{{}, tid} {
		for i, spans := range samples {
			name := fmt.Sprintf("trace %s, spans %d", id, i)
			for j, s := range spans {
				sameJSON(t, fmt.Sprintf("%s: sample %d", name, j), s, stringSample(s))
			}
			sum := TraceSummary{TraceID: id, Node: "a", Op: "/extract", Site: "s<&>", Path: "fast", Status: 200, StartedAt: started, DurationNS: 1000, SpanCount: len(spans)}
			sameJSON(t, name+": summary", sum, stringSummary(sum))
			sameJSON(t, name+": bare summary", TraceSummary{TraceID: id}, stringSummary(TraceSummary{TraceID: id}))

			td := TraceData{TraceSummary: sum, Spans: spans}
			if i > 0 {
				td.Attrs = map[string]string{"path": "fast"}
				td.Charges = map[string]int64{"tokens": 7, "nodes": 3}
			}
			sameJSON(t, name+": data", td, stringTraceData{stringSummary(sum), td.Attrs, td.Charges, stringSamples(spans)})

			dt := DecisionTrace{
				TraceID: id, SubtreePath: "html[1].body[1]", Separator: "tr", Confidence: 0.75, Objects: 4, Phases: spans,
				Combined: []RankedItem{{Rank: 1, Key: "tr", Score: 0.5}},
			}
			if i > 0 {
				dt.FromRule, dt.Charges = true, map[string]int64{"objects": 4}
				dt.SeparatorRankings = []Ranking{{Name: "SD", Items: []RankedItem{{Rank: 1, Key: "tr", Score: 2}}}}
			}
			sameJSON(t, name+": decision", dt, stringDecisionTrace{
				hexOf(dt.TraceID), dt.SubtreePath, dt.SubtreeRanking, dt.SeparatorRankings, dt.Combined,
				dt.Separator, dt.Confidence, dt.FromRule, dt.Objects, stringSamples(spans), dt.Charges,
			})
		}
	}
}

func TestIDTextCodec(t *testing.T) {
	tid := NewTraceID()
	if b, _ := tid.AppendText([]byte("x")); string(b) != "x"+tid.String() {
		t.Errorf("AppendText = %q, want x + %s", b, tid)
	}
	if b, _ := (TraceID{}).MarshalText(); len(b) != 0 {
		t.Errorf("zero TraceID text = %q, want empty", b)
	}
	var got TraceID
	if err := got.UnmarshalText([]byte(tid.String())); err != nil || got != tid {
		t.Errorf("UnmarshalText(%s) = %s, %v", tid, got, err)
	}
	for _, bad := range []string{"00", strings.Repeat("g", 32), tid.String() + "00", tid.String()[:31]} {
		if err := got.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
	var sid SpanID
	if err := sid.UnmarshalText([]byte("00f067aa0ba902b7")); err != nil || sid != (SpanID{0, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}) {
		t.Errorf("UnmarshalText = %v, %v", sid, err)
	}
	if err := sid.UnmarshalText([]byte("00f067aa0ba902")); err == nil {
		t.Error("short span ID accepted")
	}
	sc := SpanContext{TraceID: tid, SpanID: sid, Sampled: true}
	if want := "00-" + tid.String() + "-" + sid.String() + "-01"; sc.Header() != want {
		t.Errorf("Header = %q, want %q", sc.Header(), want)
	}
}

// TestExemplarLineUnchanged: a binary exemplar renders the bucket line
// the string exemplar did.
func TestExemplarLineUnchanged(t *testing.T) {
	r := NewRegistry()
	tid := TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c}
	testFast.ObserveExemplar(r, 0.0042, tid)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "\nserve_fast_seconds_bucket{le=\"0.005\"} 1 # {trace_id=\"0af7651916cd43dd8448eb211c80319c\"} 0.0042\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, buf.String())
	}
}

// TestTelemetryAllocs: the End of a traced span and rendering an ID
// into a buffer with room allocate nothing.
func TestTelemetryAllocs(t *testing.T) {
	ctx, rec := WithTraceRecorder(WithRegistry(context.Background(), NewRegistry()), false)
	ctx, root := startSpan(ctx, phaseHandler)
	_, sp := startSpan(ctx, phaseTidy)
	tracedEnd := func() {
		rec.spans = rec.spans[:0]
		sp.ended = false
		sp.end()
	}
	tid := NewTraceID()
	buf := make([]byte, 0, 64)
	appendText := func() { buf, _ = tid.AppendText(buf[:0]) }
	for name, f := range map[string]func(){"traced span end": tracedEnd, "TraceID.AppendText": appendText} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
	root.end()
}
