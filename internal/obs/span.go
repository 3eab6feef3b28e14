package obs

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseFamily is the histogram family every span's wall time lands in, one
// labeled series per declared Phase. /metricsz therefore exposes a latency
// histogram per pipeline phase with no per-phase registration code.
const PhaseFamily = "omini_phase_seconds"

// PhaseSeries returns the registry series name for one phase's latency
// histogram, for reading it back with Registry.Histogram.
func PhaseSeries(phase string) string {
	return fmt.Sprintf("%s{phase=%q}", PhaseFamily, phase)
}

// PhaseSample is one completed span as recorded in a trace: its name, its
// position in the span tree, wall time, and (when the recorder samples
// allocations) the process-wide allocation delta across the span. On
// traced requests it additionally carries the span's distributed-tracing
// identity: its own ID, its parent's ID (which may live on another node),
// and its start offset from the local recorder's start.
type PhaseSample struct {
	// Name is the span name ("tokenize", "tidy", ...).
	Name string `json:"name"`
	// Parent is the enclosing span's name ("" at the root).
	Parent string `json:"parent,omitempty"`
	// Depth is the nesting depth (0 at the root).
	Depth int `json:"depth"`
	// DurationNS is the span's wall time in nanoseconds.
	DurationNS int64 `json:"durationNs"`
	// SpanID / ParentSpanID identify the span in its distributed trace
	// (zero, and omitted from JSON, on untraced extractions and on a
	// root without a remote parent). A root span's ParentSpanID may name
	// a span recorded on another node — the cluster hop that forwarded
	// the request here. They stay binary until rendered: JSON encodes
	// them as 16 hex digits through SpanID.MarshalText.
	SpanID       SpanID `json:"spanId,omitzero"`
	ParentSpanID SpanID `json:"parentSpanId,omitzero"`
	// StartNS is the span's start offset from the recorder's start, in
	// nanoseconds. Offsets are node-local clocks; spans from different
	// nodes of one trace are not mutually aligned.
	StartNS int64 `json:"startNs,omitempty"`
	// AllocBytes and Allocs are the process-wide heap-allocation deltas
	// over the span (approximate under concurrency; exact when the traced
	// extraction runs alone, which is how traces are usually taken).
	AllocBytes int64 `json:"allocBytes,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
}

// TraceRecorder accumulates the completed spans of one traced operation,
// along with its trace identity, free-form annotations and governor
// charges. Attach one to a context with StartTrace (or the
// WithTraceRecorder shorthand); spans started under that context report
// into it. Safe for concurrent use.
type TraceRecorder struct {
	// SampleAllocs enables per-span allocation deltas via
	// runtime.ReadMemStats. The read briefly stops the world, so it is
	// opt-in and meant for interactive tracing, not steady-state serving.
	SampleAllocs bool

	// decisions marks a trace whose reader wants the extraction's
	// decision trace (WantsDecisions), not only its spans.
	decisions bool

	traceID TraceID
	remote  SpanID // upstream parent span; local roots parent to it
	start   time.Time
	base    uint64        // random base for span-ID allocation
	seq     atomic.Uint64 // per-span increment over base

	mu      sync.Mutex
	spans   []PhaseSample
	attrs   map[string]string
	charges map[string]int64
	// spanBuf backs spans up to its length, so a request's spans are
	// recorded without growing a slice.
	spanBuf [recorderSpans]PhaseSample
}

// recorderSpans is how many spans a recorder holds before its span
// slice grows: a traced request records about ten (handler, farm path,
// six pipeline phases, and the cluster's route and hop).
const recorderSpans = 16

// TraceID returns the trace's identity.
func (tr *TraceRecorder) TraceID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.traceID
}

// WantsDecisions reports whether the traced operation's caller reads
// its decision trace: WithTraceRecorder callers always do, and an
// inbound request does when it asked with ?trace=1 (Enter). The
// pipeline builds the decision trace only then; spans, attributes and
// charges are recorded on every trace.
func (tr *TraceRecorder) WantsDecisions() bool {
	return tr != nil && tr.decisions
}

// Start returns the recorder's creation time; span StartNS offsets are
// relative to it.
func (tr *TraceRecorder) Start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// nextSpanID allocates a span ID unique within this recorder: one
// random 64-bit base per trace plus an atomic sequence, so the serving
// path pays no per-span randomness.
func (tr *TraceRecorder) nextSpanID() SpanID {
	v := tr.base + tr.seq.Add(1)
	if v == 0 {
		v = tr.base + tr.seq.Add(1)
	}
	var id SpanID
	binary.BigEndian.PutUint64(id[:], v)
	return id
}

// Annotate attaches a key/value attribute to the trace (the farm path
// taken, for example). First write wins on a duplicate key.
func (tr *TraceRecorder) Annotate(k, v string) {
	if tr == nil || k == "" {
		return
	}
	tr.mu.Lock()
	if tr.attrs == nil {
		tr.attrs = make(map[string]string, 4)
	}
	if _, ok := tr.attrs[k]; !ok {
		tr.attrs[k] = v
	}
	tr.mu.Unlock()
}

// SetCharge records one governor charge (tokens, nodes, objects)
// consumed by the traced operation. Last write wins.
func (tr *TraceRecorder) SetCharge(kind string, v int64) {
	if tr == nil || kind == "" {
		return
	}
	tr.mu.Lock()
	if tr.charges == nil {
		tr.charges = make(map[string]int64, 4)
	}
	tr.charges[kind] = v
	tr.mu.Unlock()
}

// Charges returns a copy of the recorded governor charges (nil when
// none).
func (tr *TraceRecorder) Charges() map[string]int64 {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.charges) == 0 {
		return nil
	}
	out := make(map[string]int64, len(tr.charges))
	for k, v := range tr.charges {
		out[k] = v
	}
	return out
}

// Spans returns the recorded samples in completion order.
func (tr *TraceRecorder) Spans() []PhaseSample {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]PhaseSample, len(tr.spans))
	copy(out, tr.spans)
	return out
}

// Finish hands the recorder's spans, attributes and charges to the
// caller without copying them, and leaves the recorder empty: anything
// reported afterwards starts fresh state that the caller never sees.
// Call it once the root span has ended, to build the trace's TraceData.
func (tr *TraceRecorder) Finish() (spans []PhaseSample, attrs map[string]string, charges map[string]int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans, attrs, charges = tr.spans, tr.attrs, tr.charges
	tr.spans, tr.attrs, tr.charges = nil, nil, nil
	return spans, attrs, charges
}

func (tr *TraceRecorder) add(s PhaseSample) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

type recorderKey struct{}
type spanKey struct{}

// StartTrace returns a context carrying a fresh TraceRecorder for one
// traced operation. sc continues an upstream trace: its TraceID is
// adopted (a zero TraceID generates a fresh one) and its SpanID becomes
// the remote parent of the local root span. sampleAllocs additionally
// records per-span allocation deltas (see TraceRecorder.SampleAllocs).
func StartTrace(ctx context.Context, sc SpanContext, sampleAllocs bool) (context.Context, *TraceRecorder) {
	tr := &TraceRecorder{
		SampleAllocs: sampleAllocs,
		traceID:      sc.TraceID,
		remote:       sc.SpanID,
		start:        time.Now(),
		base:         rand.Uint64(),
	}
	tr.spans = tr.spanBuf[:0]
	if tr.traceID.IsZero() {
		tr.traceID = NewTraceID()
	}
	return context.WithValue(ctx, recorderKey{}, tr), tr
}

// WithTraceRecorder is StartTrace with a fresh trace identity — the
// single-process tracing entry point (omini -trace, golden trace
// tests). Its caller reads the decision trace, so the recorder wants
// decisions.
func WithTraceRecorder(ctx context.Context, sampleAllocs bool) (context.Context, *TraceRecorder) {
	ctx, tr := StartTrace(ctx, SpanContext{}, sampleAllocs)
	tr.decisions = true
	return ctx, tr
}

// TraceRecorderFrom returns the context's recorder, or nil when the
// operation is not being traced.
func TraceRecorderFrom(ctx context.Context) *TraceRecorder {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(recorderKey{}).(*TraceRecorder)
	return tr
}

// TraceIDFrom returns the trace ID of the context's trace, or the zero
// ID when the operation is not being traced — the exemplar argument for
// Latency.ObserveExemplar.
func TraceIDFrom(ctx context.Context) TraceID {
	return TraceRecorderFrom(ctx).TraceID()
}

// AnnotateTrace attaches a key/value attribute to the context's trace;
// a no-op on untraced contexts.
func AnnotateTrace(ctx context.Context, k, v string) {
	TraceRecorderFrom(ctx).Annotate(k, v)
}

// SpanContextFrom returns the propagation context of the current span:
// the trace ID plus the innermost open span's ID, marked sampled. It is
// invalid (zero) when the context carries no traced span — untraced
// work propagates nothing.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	if sp == nil || sp.rec == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.rec.traceID, SpanID: sp.id, Sampled: true}
}

// Span is one in-flight timed region. Created by StartSpan or StartLeaf;
// End records it into the context's registry histogram and trace
// recorder.
type Span struct {
	phase    *Phase
	parent   string
	depth    int
	id       SpanID
	parentID SpanID
	startOff int64
	start    time.Time
	dur      time.Duration
	reg      *Registry
	rec      *TraceRecorder
	// allocs0 and bytes0 are the process's allocation counters at the
	// start, read only when the recorder samples allocations.
	allocs0, bytes0 uint64
	ended           bool
	// declined marks an untraced span of a request whose boundary
	// decided not to sample it; children inherit it, and Inject
	// forwards the decision.
	declined bool
}

// StartSpan begins a span of the declared phase under ctx and returns a
// derived context (carrying the span, so nested StartSpan calls see their
// parent) plus the span itself. The span's wall time always lands in the
// context registry's per-phase histogram; when the context carries a
// TraceRecorder the span is also appended to the trace with a span ID
// parented into the trace's span tree. Always pair with End:
//
//	var phaseTidy = obs.NewPhase("tidy") // package level
//	...
//	ctx, sp := obs.StartSpan(ctx, phaseTidy)
//	... phase work ...
//	sp.End()
//
// A span that starts no nested span needs no derived context: use
// StartLeaf.
func StartSpan(ctx context.Context, phase *Phase) (context.Context, *Span) {
	sp := new(Span)
	*sp = StartLeaf(ctx, phase)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartLeaf begins a span that no other span nests under: the same
// span StartSpan starts — its histogram observation, trace sample,
// parent span and declined decision are identical — returned by value
// and never entered into a context, so starting it allocates nothing.
// Pair it with End as StartSpan's:
//
//	sp := obs.StartLeaf(ctx, phaseTidy)
//	... phase work ...
//	sp.End()
func StartLeaf(ctx context.Context, phase *Phase) Span {
	sp := Span{
		phase: phase,
		reg:   RegistryFrom(ctx),
		rec:   TraceRecorderFrom(ctx),
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		sp.parent = parent.phase.name
		sp.depth = parent.depth + 1
		sp.parentID = parent.id
		sp.declined = parent.declined
	} else if sp.rec != nil {
		sp.parentID = sp.rec.remote
	}
	if sp.rec != nil {
		sp.id = sp.rec.nextSpanID()
		sp.startOff = time.Since(sp.rec.start).Nanoseconds()
		if sp.rec.SampleAllocs {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			sp.allocs0, sp.bytes0 = m.Mallocs, m.TotalAlloc
		}
	}
	sp.start = time.Now()
	return sp
}

// ID returns the span's trace-local identity (zero on untraced spans).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Context returns the span's propagation context for cross-node
// forwarding; invalid (zero) on untraced spans.
func (s *Span) Context() SpanContext {
	if s == nil || s.rec == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.traceID, SpanID: s.id, Sampled: true}
}

// End completes the span, recording wall time (and alloc deltas when
// sampled) into the registry and recorder. End is idempotent; only the
// first call records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.phase.hist.Observe(s.reg, s.dur.Seconds())
	if s.rec == nil {
		return
	}
	sample := PhaseSample{
		Name:         s.phase.name,
		Parent:       s.parent,
		Depth:        s.depth,
		DurationNS:   s.dur.Nanoseconds(),
		SpanID:       s.id,
		ParentSpanID: s.parentID,
		StartNS:      s.startOff,
	}
	if s.rec.SampleAllocs {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		sample.AllocBytes = int64(m.TotalAlloc - s.bytes0)
		sample.Allocs = int64(m.Mallocs - s.allocs0)
	}
	s.rec.add(sample)
}

// Duration returns the span's recorded wall time (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}
