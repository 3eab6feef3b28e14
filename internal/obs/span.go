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

// stateKey is the one key obs sets in a context. Its value is the
// context's obs state, a *span: the innermost open span, or a scope
// standing in for one. Either carries the registry and trace recorder
// the context's work reports into and the per-request state of the
// boundary it runs under, so every lookup is one ctx.Value.
type stateKey struct{}

// stateFrom returns ctx's obs state, nil when it carries none.
func stateFrom(ctx context.Context) *span {
	if ctx == nil {
		return nil
	}
	st, _ := ctx.Value(stateKey{}).(*span)
	return st
}

// scopeOf returns a copy of ctx's obs state to derive a new state
// from. A copy of an open span stands in for it as its children's
// parent but is never ended itself; without a state it is an empty
// scope, which has no phase and parents nothing.
func scopeOf(ctx context.Context) span {
	sc := span{ended: true}
	if st := stateFrom(ctx); st != nil {
		// Only what a state is read for, all fixed when it started:
		// its owner may be ending it on another goroutine.
		sc.phase, sc.depth, sc.id, sc.declined = st.phase, st.depth, st.id, st.declined
		sc.reg, sc.rec, sc.info = st.reg, st.rec, st.info
	}
	return sc
}

// newRecorder returns a fresh TraceRecorder: see StartTrace.
func newRecorder(sc SpanContext, sampleAllocs bool) *TraceRecorder {
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
	return tr
}

// StartTrace returns a context carrying a fresh TraceRecorder for one
// traced operation. sc continues an upstream trace: its TraceID is
// adopted (a zero TraceID generates a fresh one) and its SpanID becomes
// the remote parent of the local root span. sampleAllocs additionally
// records per-span allocation deltas (see TraceRecorder.SampleAllocs).
// An inbound request's recorder is started by Enter instead.
func StartTrace(ctx context.Context, sc SpanContext, sampleAllocs bool) (context.Context, *TraceRecorder) {
	tr := newRecorder(sc, sampleAllocs)
	st := scopeOf(ctx)
	st.rec = tr
	return context.WithValue(ctx, stateKey{}, &st), tr
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
	if st := stateFrom(ctx); st != nil {
		return st.rec
	}
	return nil
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
	sp := stateFrom(ctx)
	if !sp.open() || sp.rec == nil {
		return SpanContext{}
	}
	return sp.spanContext()
}

// Leaf runs fn as one span of the declared phase under ctx. The span's
// wall time always lands in the context registry's per-phase
// histogram; when the context carries a TraceRecorder it is also
// appended to the trace, parented to the context's innermost span. fn
// gets no derived context, so no span nests under a leaf, and running
// one allocates nothing:
//
//	var phaseTidy = obs.NewPhase("tidy") // package level
//	...
//	obs.Leaf(ctx, phaseTidy, func() { toks, err = tidy.NormalizeTokens(buf, toks, g) })
//
// The span ends when fn returns or panics.
func Leaf(ctx context.Context, phase *Phase, fn func()) {
	sp := startLeaf(ctx, phase)
	defer sp.end()
	fn()
}

// Run runs fn as one span of the declared phase under ctx, as Leaf
// does, but hands fn a derived context that carries the span: spans
// started under it nest, and outbound requests made with it propagate
// the span's trace context. It returns the span's wall time, the one
// clock a caller needs to observe its own latency for the region.
func Run(ctx context.Context, phase *Phase, fn func(context.Context)) (d time.Duration) {
	ctx, sp := startSpan(ctx, phase)
	defer func() {
		sp.end()
		d = sp.dur
	}()
	fn(ctx)
	return
}

// span is one in-flight timed region, started by startSpan or
// startLeaf; end records it into the context's registry histogram and
// trace recorder. Outside this package spans exist only inside Leaf,
// Run and a Boundary, which end them. A span is also what a context
// carries as its obs state (stateKey); a scope, a state with no phase,
// stands for no span.
type span struct {
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
	// info is the per-request state of the boundary the span runs
	// under (Enter's info), inherited by every span below it.
	info any
	// allocs0 and bytes0 are the process's allocation counters at the
	// start, read only when the recorder samples allocations.
	allocs0, bytes0 uint64
	ended           bool
	// declined marks an untraced span of a request whose boundary
	// decided not to sample it; children inherit it, and Inject
	// forwards the decision.
	declined bool
}

// open reports whether s is a span, not a scope or nil.
func (s *span) open() bool { return s != nil && s.phase != nil }

// startSpan begins a span of the declared phase under ctx and returns
// a derived context carrying the span, so spans started under it see
// their parent.
func startSpan(ctx context.Context, phase *Phase) (context.Context, *span) {
	sp := new(span)
	*sp = startLeaf(ctx, phase)
	return context.WithValue(ctx, stateKey{}, sp), sp
}

// startLeaf begins the span startSpan begins — its histogram
// observation, trace sample, parent span and declined decision are
// identical — returned by value and never entered into a context, so
// starting it allocates nothing.
func startLeaf(ctx context.Context, phase *Phase) span {
	return begin(stateFrom(ctx), phase)
}

// begin starts a span of the declared phase under st, a context's obs
// state (nil for none): the span reports into st's registry and
// recorder, and is the child of st when st is a span.
func begin(st *span, phase *Phase) span {
	sp := span{phase: phase, reg: Default}
	if st != nil {
		if st.reg != nil {
			sp.reg = st.reg
		}
		sp.rec, sp.info = st.rec, st.info
	}
	if st.open() {
		sp.parent = st.phase.name
		sp.depth = st.depth + 1
		sp.parentID = st.id
		sp.declined = st.declined
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

// spanContext returns a traced span's propagation context for
// cross-node forwarding. s must be traced (s.rec != nil).
func (s *span) spanContext() SpanContext {
	return SpanContext{TraceID: s.rec.traceID, SpanID: s.id, Sampled: true}
}

// end completes the span, recording wall time (and alloc deltas when
// sampled) into the registry and recorder. end is idempotent; only the
// first call records.
func (s *span) end() {
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
