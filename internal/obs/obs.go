// Package obs is the observability layer of the pipeline: a metrics
// registry (atomic counters, gauges, bounded latency histograms with
// quantile estimation, Prometheus-style text exposition), lightweight span
// tracing propagated through context.Context, a structured per-extraction
// decision trace, and a leveled JSON logger.
//
// The package is stdlib-only and knows nothing about HTML or extraction;
// the pipeline (internal/core, internal/fetch, internal/serve,
// internal/resilience) publishes into it and the operational surfaces
// (/metricsz, /tracez, ?trace=1, omini -trace) read out of it. The paper's
// evaluation (Sections 6-7) is built on exactly this visibility — which
// heuristic drove each extraction and where the time went — and this
// package makes the same questions answerable on a production instance
// under live traffic instead of only in offline benchmarks.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process- or component-scoped collection of named metrics:
// monotonic counters, gauges (stored or computed), and bounded histograms.
// All methods are safe for concurrent use; the read paths (Get, Snapshot,
// WritePrometheus) never block writers for long.
//
// Names use dotted lower-case ("serve.panics", "core.batch_pages") and are
// sanitized to Prometheus conventions only at exposition time, so the
// JSON-facing surfaces keep the friendly names.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64
	gaugefns map[string]func() float64
	hists    map[string]*Histogram
}

// Default is the process-wide registry; components fall back to it when no
// Registry is configured, so one /metricsz scrape sees everything.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Int64),
		gauges:   make(map[string]*atomic.Int64),
		gaugefns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n int64) {
	r.Counter(name).Add(n)
}

// Get returns the named counter's value (0 if never touched).
func (r *Registry) Get(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Gauge returns the named stored gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *atomic.Int64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(atomic.Int64)
		r.gauges[name] = g
	}
	return g
}

// SetGauge stores v in the named gauge.
func (r *Registry) SetGauge(name string, v int64) {
	r.Gauge(name).Store(v)
}

// RegisterGaugeFunc registers a gauge computed at exposition time (cache
// sizes, in-flight requests). Re-registering a name replaces the function.
func (r *Registry) RegisterGaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugefns[name] = fn
}

// Histogram returns the named histogram with the default latency bounds,
// creating it on first use. The name may carry Prometheus-style labels
// (`phase_seconds{phase="tidy"}`); series sharing the text before '{' are
// grouped into one family at exposition.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	return h
}

// Observe records v into the named histogram.
func (r *Registry) Observe(name string, v float64) {
	r.Histogram(name).Observe(v)
}

// ObserveExemplar records v into the named histogram and attaches the
// trace ID as the bucket's exemplar, so a latency outlier on /metricsz
// links to the /tracez trace that caused it. An empty trace ID records
// the value without an exemplar, so untraced requests share the call
// site.
func (r *Registry) ObserveExemplar(name string, v float64, traceID string) {
	r.Histogram(name).ObserveExemplar(v, traceID)
}

// Names returns the registered counter names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// registryKey carries a Registry through a context.
type registryKey struct{}

// WithRegistry returns a context carrying reg; spans and instrumented
// components publish into it instead of Default.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, reg)
}

// RegistryFrom returns the context's registry, or Default when none is
// attached. It never returns nil.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx != nil {
		if reg, ok := ctx.Value(registryKey{}).(*Registry); ok && reg != nil {
			return reg
		}
	}
	return Default
}
