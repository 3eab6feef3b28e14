package obs

// Distributed tracing identity and storage: 128-bit trace IDs, 64-bit
// span IDs, a W3C-traceparent-style header codec for propagating them
// across cluster hops, a cheap probabilistic head sampler, and a
// bounded tail-sampling sink that always keeps errored and slowest-N
// traces. boundary.go carries them across HTTP.

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying trace identity across
// cluster hops, in the W3C traceparent shape:
//
//	X-Omini-Trace: 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// Flag bit 0 is "sampled": the sender is recording this trace, and the
// receiver should record its part too so the span tree is complete.
const TraceHeader = "X-Omini-Trace"

// TraceID is a 128-bit trace identity shared by every span of one
// request, across every node it touches.
type TraceID [16]byte

// SpanID is a 64-bit span identity, unique within its trace.
type SpanID [8]byte

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], rand.Uint64())
	binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	if id == (TraceID{}) {
		id[15] = 1
	}
	return id
}

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lower-case hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// AppendText appends the ID's text form to b: 32 lower-case hex digits,
// or nothing for the zero ID, so an absent identity renders as absent.
// It never allocates when b has room.
func (t TraceID) AppendText(b []byte) ([]byte, error) {
	if t.IsZero() {
		return b, nil
	}
	return hex.AppendEncode(b, t[:]), nil
}

// MarshalText renders the ID as AppendText does; JSON fields of this
// type therefore read as the hex strings they always were.
func (t TraceID) MarshalText() ([]byte, error) { return t.AppendText(nil) }

// UnmarshalText parses 32 hex digits; empty text is the zero ID.
func (t *TraceID) UnmarshalText(b []byte) error { return decodeID(t[:], b) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lower-case hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// AppendText appends the ID's text form to b: 16 lower-case hex digits,
// or nothing for the zero ID.
func (s SpanID) AppendText(b []byte) ([]byte, error) {
	if s.IsZero() {
		return b, nil
	}
	return hex.AppendEncode(b, s[:]), nil
}

// MarshalText renders the ID as AppendText does.
func (s SpanID) MarshalText() ([]byte, error) { return s.AppendText(nil) }

// UnmarshalText parses 16 hex digits; empty text is the zero ID.
func (s *SpanID) UnmarshalText(b []byte) error { return decodeID(s[:], b) }

// decodeID decodes an ID's hex text into dst, which must be filled
// exactly; empty text leaves dst zero.
func decodeID(dst, text []byte) error {
	if len(text) == 0 {
		clear(dst)
		return nil
	}
	if len(text) != 2*len(dst) {
		return fmt.Errorf("obs: id %q is not %d hex digits", text, 2*len(dst))
	}
	_, err := hex.Decode(dst, text)
	return err
}

// SpanContext is the propagated identity of one span: the trace it
// belongs to, its own ID (the parent of whatever the receiver starts),
// and whether the trace is being recorded.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context carries a usable trace ID.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() }

// headerLen is the length of a TraceHeader value.
const headerLen = len("00-") + 32 + len("-") + 16 + len("-00")

// Header encodes the context in the TraceHeader wire format. The value
// is assembled on the stack, so the returned string is its only
// allocation.
func (sc SpanContext) Header() string {
	var buf [headerLen]byte
	return string(sc.appendHeader(buf[:0]))
}

// appendHeader appends the context's TraceHeader value to b.
func (sc SpanContext) appendHeader(b []byte) []byte {
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, sc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.SpanID[:])
	if sc.Sampled {
		return append(b, "-01"...)
	}
	return append(b, "-00"...)
}

// ParseTraceHeader decodes a TraceHeader value. An empty string is not
// an error shape worth distinguishing: it returns a zero (invalid)
// context and a nil error, so callers can treat "absent" and "present"
// uniformly through Valid().
func ParseTraceHeader(s string) (SpanContext, error) {
	if s == "" {
		return SpanContext{}, nil
	}
	// The shape check is strings.Split's "four parts of 2, 32, 16 and
	// 2 characters", without building the parts.
	if len(s) != headerLen || s[2] != '-' || s[35] != '-' || s[52] != '-' || strings.Count(s, "-") != 3 {
		return SpanContext{}, fmt.Errorf("obs: malformed trace header %q", s)
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: bad trace id in header %q: %w", s, err)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: bad span id in header %q: %w", s, err)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: bad flags in header %q: %w", s, err)
	}
	if sc.TraceID.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: zero trace id in header %q", s)
	}
	sc.Sampled = flags[0]&1 != 0
	return sc, nil
}

// Sampler makes the head-sampling decision for requests that arrive
// without an upstream decision. A nil Sampler samples everything.
type Sampler struct {
	rate float64
}

// NewSampler returns a sampler recording the given fraction of
// requests: rate >= 1 records all, rate <= 0 records none.
func NewSampler(rate float64) *Sampler {
	return &Sampler{rate: rate}
}

// Sample reports whether the next request should be traced.
func (s *Sampler) Sample() bool {
	if s == nil || s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	return rand.Float64() < s.rate
}

// TraceSummary is one trace's /tracez list row.
type TraceSummary struct {
	// TraceID is always present: the sink stores no zero ID.
	TraceID TraceID `json:"traceId"`
	// Node is the cluster node that recorded this trace ("" single-node).
	Node string `json:"node,omitempty"`
	// Op is the operation ("/extract", "/records", "route").
	Op string `json:"op,omitempty"`
	// Site is the requested site, when known.
	Site string `json:"site,omitempty"`
	// Path is the farm serving path taken ("fast" or "slow"), when the
	// request reached the farm.
	Path string `json:"path,omitempty"`
	// Status is the HTTP status the request finished with.
	Status int `json:"status,omitempty"`
	// Error is the error message of a failed request.
	Error      string    `json:"error,omitempty"`
	StartedAt  time.Time `json:"startedAt"`
	DurationNS int64     `json:"durationNs"`
	SpanCount  int       `json:"spanCount"`
}

// TraceData is one stored trace: the summary plus the full span tree,
// free-form attributes, and the governor charges of its extraction.
type TraceData struct {
	TraceSummary
	Attrs   map[string]string `json:"attrs,omitempty"`
	Charges map[string]int64  `json:"governorCharges,omitempty"`
	Spans   []PhaseSample     `json:"spans,omitempty"`

	// The sink's bookkeeping: pinned marks a member of its keep-slow
	// set, seq the order in which the sink first stored the trace.
	pinned bool
	seq    uint64
}

// errored reports whether the trace should be pinned as a failure.
func (t *TraceData) errored() bool {
	return t.Status >= 400 || t.Error != ""
}

// DefaultTraceCapacity bounds the trace sink when no capacity is
// configured.
const DefaultTraceCapacity = 256

// TraceSink is the bounded tail-sampling trace buffer behind
// GET /tracez. Every finished sampled trace is Recorded; when the
// buffer is full the sink evicts the oldest trace that is neither
// errored nor among the slowest keep-slow set, so the traces worth
// debugging — failures and tail latency — survive buffer churn.
// Recording a trace ID that is already stored merges the span sets,
// which is how the coordinator half and the serve half of a
// self-served request end up as one trace.
//
// The keep-slow set is kept incrementally: each Record compares the
// new or merged trace with the set's weakest member, O(keepSlow) and
// allocation-free, and a tie in duration keeps the earlier trace.
type TraceSink struct {
	mu       sync.Mutex
	capacity int
	keepSlow int
	entries  map[TraceID]*TraceData
	order    []TraceID    // insertion order, oldest first
	slow     []*TraceData // the keep-slow set, each member pinned
	seq      uint64       // insertions so far
}

// NewTraceSink returns a sink holding up to capacity traces
// (DefaultTraceCapacity when capacity <= 0). A quarter of the buffer
// (at least 4 slots) is reserved for the slowest traces.
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	keepSlow := capacity / 4
	if keepSlow < 4 {
		keepSlow = 4
	}
	if keepSlow > capacity {
		keepSlow = capacity
	}
	// Record stores a trace before it evicts, so the buffer briefly
	// holds capacity+1.
	return &TraceSink{
		capacity: capacity,
		keepSlow: keepSlow,
		entries:  make(map[TraceID]*TraceData, capacity+1),
		order:    make([]TraceID, 0, capacity+1),
		slow:     make([]*TraceData, 0, keepSlow),
	}
}

// Capacity returns the configured bound.
func (s *TraceSink) Capacity() int {
	if s == nil {
		return 0
	}
	return s.capacity
}

// Len returns the number of stored traces.
func (s *TraceSink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Record stores (or merges) one finished trace and returns how many
// traces were evicted to make room. The sink takes ownership of t.
func (s *TraceSink) Record(t *TraceData) (evicted int) {
	if s == nil || t == nil || t.TraceID.IsZero() {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.entries[t.TraceID]; existing != nil {
		mergeTrace(existing, t)
		// The merge may have raised DurationNS.
		s.considerSlowLocked(existing)
		return 0
	}
	s.seq++
	t.pinned, t.seq = false, s.seq
	s.entries[t.TraceID] = t
	s.order = append(s.order, t.TraceID)
	s.considerSlowLocked(t)
	for len(s.entries) > s.capacity {
		if !s.evictOneLocked() {
			break
		}
		evicted++
	}
	return evicted
}

// mergeTrace folds src into dst: span sets concatenate, empty scalar
// fields fill in, the window extends to cover both halves. Durations
// are node-local measurements; the merged duration is the larger one
// (the outer half covers the inner).
func mergeTrace(dst, src *TraceData) {
	dst.Spans = append(dst.Spans, src.Spans...)
	dst.SpanCount = len(dst.Spans)
	if dst.Node == "" {
		dst.Node = src.Node
	}
	if dst.Op == "" || src.Op == "route" {
		// The route half is the outermost view of the request.
		dst.Op = src.Op
	}
	if dst.Site == "" {
		dst.Site = src.Site
	}
	if dst.Path == "" {
		dst.Path = src.Path
	}
	if dst.Error == "" {
		dst.Error = src.Error
	}
	if dst.Status == 0 {
		dst.Status = src.Status
	}
	if dst.StartedAt.IsZero() || (!src.StartedAt.IsZero() && src.StartedAt.Before(dst.StartedAt)) {
		dst.StartedAt = src.StartedAt
	}
	if src.DurationNS > dst.DurationNS {
		dst.DurationNS = src.DurationNS
	}
	if len(src.Attrs) > 0 {
		if dst.Attrs == nil {
			dst.Attrs = make(map[string]string, len(src.Attrs))
		}
		for k, v := range src.Attrs {
			if _, ok := dst.Attrs[k]; !ok {
				dst.Attrs[k] = v
			}
		}
	}
	if len(src.Charges) > 0 {
		if dst.Charges == nil {
			dst.Charges = make(map[string]int64, len(src.Charges))
		}
		for k, v := range src.Charges {
			if _, ok := dst.Charges[k]; !ok {
				dst.Charges[k] = v
			}
		}
	}
}

// slower orders traces for the keep-slow set: the longer duration
// first, and on a tie the trace the sink stored first.
func slower(a, b *TraceData) bool {
	return a.DurationNS > b.DurationNS || (a.DurationNS == b.DurationNS && a.seq < b.seq)
}

// considerSlowLocked pins a stored trace that now belongs to the
// keep-slow set, unpinning the set's weakest member if the set is full.
func (s *TraceSink) considerSlowLocked(t *TraceData) {
	if t.pinned {
		return
	}
	if len(s.slow) < s.keepSlow {
		t.pinned = true
		s.slow = append(s.slow, t)
		return
	}
	weakest := 0
	for i, c := range s.slow {
		if slower(s.slow[weakest], c) {
			weakest = i
		}
	}
	if slower(t, s.slow[weakest]) {
		s.slow[weakest].pinned = false
		t.pinned = true
		s.slow[weakest] = t
	}
}

// evictOneLocked removes one trace under the tail-sampling policy:
// the oldest trace that is neither errored nor in the keep-slow set.
// When everything is pinned, the oldest errored non-slow trace goes,
// and as the final fallback the oldest trace of all — the bound always
// holds. Reports whether anything was removed.
func (s *TraceSink) evictOneLocked() bool {
	if len(s.order) == 0 {
		return false
	}
	victim := -1
	for i, id := range s.order {
		if t := s.entries[id]; !t.errored() && !t.pinned {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i, id := range s.order {
			if !s.entries[id].pinned {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = 0
	}
	id := s.order[victim]
	t := s.entries[id]
	s.order = append(s.order[:victim], s.order[victim+1:]...)
	delete(s.entries, id)
	if t.pinned {
		s.dropSlowLocked(t)
	}
	return true
}

// dropSlowLocked removes an evicted trace from the keep-slow set. Only
// the last-resort fallback evicts a pinned trace, and it runs only when
// every stored trace is pinned, so there is no unpinned trace to take
// the freed place: the set stays the slowest of what remains.
func (s *TraceSink) dropSlowLocked(gone *TraceData) {
	for i, c := range s.slow {
		if c == gone {
			last := len(s.slow) - 1
			s.slow[i], s.slow[last] = s.slow[last], nil
			s.slow = s.slow[:last]
			return
		}
	}
}

// List returns summaries of every stored trace, newest first.
func (s *TraceSink) List() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		if t := s.entries[s.order[i]]; t != nil {
			out = append(out, t.TraceSummary)
		}
	}
	return out
}

// Get returns a copy of one stored trace by ID.
func (s *TraceSink) Get(id TraceID) (TraceData, bool) {
	if s == nil {
		return TraceData{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.entries[id]
	if t == nil {
		return TraceData{}, false
	}
	out := *t
	out.Spans = append([]PhaseSample(nil), t.Spans...)
	if t.Attrs != nil {
		out.Attrs = make(map[string]string, len(t.Attrs))
		for k, v := range t.Attrs {
			out.Attrs[k] = v
		}
	}
	if t.Charges != nil {
		out.Charges = make(map[string]int64, len(t.Charges))
		for k, v := range t.Charges {
			out.Charges[k] = v
		}
	}
	return out, true
}
