package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBounds are the upper bucket bounds (in seconds) of a latency
// histogram: a 1-2-5 series from 1µs to 10s. Pipeline phases on real pages
// land between tens of microseconds and tens of milliseconds; whole
// requests under load can reach seconds. An implicit +Inf bucket catches
// the rest, so the histogram is bounded regardless of input.
var DefaultBounds = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Memory is bounded by the bucket count; observations are two atomic adds
// and a CAS loop for the float sum (plus a short lock to stamp an
// exemplar). Quantiles are estimated by linear
// interpolation inside the winning bucket — exact enough for p50/p95/p99
// dashboards, and the buckets themselves are exposed for anything finer.
type Histogram struct {
	bounds    []float64      // ascending upper bounds; +Inf bucket is implicit
	counts    []atomic.Int64 // len(bounds)+1
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-updated
	exMu      sync.Mutex
	exemplars []Exemplar // per bucket; a zero TraceID means none
}

// Exemplar links one observed value to the trace that produced it, in
// the OpenMetrics sense: the most recent traced observation per bucket.
// The trace ID stays binary until a scrape renders it.
type Exemplar struct {
	TraceID TraceID
	Value   float64
}

// NewHistogram returns a histogram with the given ascending upper bounds;
// nil selects DefaultBounds.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]Exemplar, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-zero,
// stamps it as the winning bucket's exemplar (last writer wins — the
// freshest trace is the useful one).
func (h *Histogram) ObserveExemplar(v float64, traceID TraceID) {
	if !traceID.IsZero() {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exMu.Lock()
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v}
		h.exMu.Unlock()
	}
	h.Observe(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] observations fell at or
	// below Bounds[i]. Counts has one extra entry for the +Inf bucket.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	// Exemplars[i] is the latest traced observation that landed in
	// bucket i (nil when the bucket has never seen one).
	Exemplars []*Exemplar
}

// Snapshot copies the histogram's buckets. The per-bucket loads are not
// mutually atomic; under concurrent writes the snapshot is approximate in
// the usual Prometheus sense.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:    h.bounds,
		Counts:    make([]int64, len(h.counts)),
		Count:     h.count.Load(),
		Sum:       h.Sum(),
		Exemplars: make([]*Exemplar, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	h.exMu.Lock()
	for i, e := range h.exemplars {
		if !e.TraceID.IsZero() {
			s.Exemplars[i] = &e
		}
	}
	h.exMu.Unlock()
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the snapshot by
// linear interpolation within the winning bucket. Returns 0 with no
// observations; values in the +Inf bucket report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			// Position of the target rank inside this bucket.
			inBucket := rank - float64(cum-c)
			return lo + (hi-lo)*math.Min(1, inBucket/float64(c))
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantile estimates the q-th quantile of the live histogram.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}
