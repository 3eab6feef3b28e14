// Package obs is the observability layer of the pipeline: a metrics
// registry of declared series (atomic counters, computed gauges, bounded
// latency histograms with quantile estimation, Prometheus-style text
// exposition with help text), lightweight span tracing propagated
// through context.Context, a structured per-extraction decision trace,
// and a leveled JSON logger.
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
	"sync/atomic"
)

// Registry is a process- or component-scoped set of values for every
// declared series (series.go): counters, computed gauges and latency
// histograms. All methods are safe for concurrent use, and no method
// takes a lock: the values live in slices indexed by declaration order,
// allocated on the registry's first use.
//
// Names use dotted lower-case ("serve.panics", "core.batch_pages") and are
// sanitized to Prometheus conventions only at exposition time, so the
// JSON-facing surfaces keep the friendly names.
type Registry struct {
	v atomic.Pointer[values]
}

// values holds one registry's series, indexed like the declarations.
type values struct {
	counters []atomic.Int64
	gauges   []atomic.Pointer[func() float64]
	hists    []*Histogram
}

// Default is the process-wide registry; components fall back to it when no
// Registry is configured, so one /metricsz scrape sees everything.
var Default = NewRegistry()

// NewRegistry returns a registry holding every declared series at zero.
func NewRegistry() *Registry {
	return &Registry{}
}

// values returns the registry's series, sealing the declarations and
// allocating them on first use.
func (r *Registry) values() *values {
	if v := r.v.Load(); v != nil {
		return v
	}
	n := seal()
	v := &values{
		counters: make([]atomic.Int64, n[kindCounter]),
		gauges:   make([]atomic.Pointer[func() float64], n[kindGauge]),
		hists:    make([]*Histogram, n[kindHistogram]),
	}
	for i := range v.hists {
		v.hists[i] = NewHistogram(nil)
	}
	if r.v.CompareAndSwap(nil, v) {
		return v
	}
	return r.v.Load()
}

// Get returns the named counter's value (0 for a name no counter was
// declared under).
func (r *Registry) Get(name string) int64 {
	v := r.values()
	if s := lookup(name, kindCounter); s != nil {
		return v.counters[s.index].Load()
	}
	return 0
}

// Histogram returns the named histogram series, for reading. The name
// may carry a label (`omini_phase_seconds{phase="tidy"}`). A name no
// histogram was declared under returns an empty histogram that belongs
// to no registry.
func (r *Registry) Histogram(name string) *Histogram {
	v := r.values()
	if s := lookup(name, kindHistogram); s != nil {
		return v.hists[s.index]
	}
	return NewHistogram(nil)
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
