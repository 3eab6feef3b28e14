package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Series are declared once, at package level, by the component that
// emits them: a name in the registry grammar plus the help text
// /metricsz prints for its family.
//
//	var hits = obs.NewCounter("farm.hits", "Fast-path extractions served from a cached rule.")
//	...
//	hits.Add(reg, 1)
//
// The first use of any Registry seals the declarations. From then on
// every registry holds every declared series, indexed by declaration
// order, so emitting is an index into the registry's slices and an
// atomic add, and a scrape of a fresh registry already shows the whole
// surface at zero. Declaring a second series of one name, a name
// outside the grammar, or any series after the seal panics: series
// names cannot be built at run time.

// seriesGrammar is the registry naming grammar: dotted lower-case with
// an optional single Prometheus-style label.
var seriesGrammar = regexp.MustCompile(`^[a-z0-9][a-z0-9_.]*(\{[a-z0-9_]+="[^"{}]*"\})?$`)

// kind is a family's Prometheus metric type. Exposition writes the
// families kind by kind in this order.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	numKinds
)

func (k kind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// series is one declared series: its slot among the series of its kind
// in every registry.
type series struct {
	name   string // registry name: `core.limit_exceeded{kind="tokens"}`
	labels string // label block without braces: `kind="tokens"`
	kind   kind
	index  int
}

// family is the series sharing one exposition name (the registry name
// before '{', sanitized); it gets one # HELP and one # TYPE line.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// declared is the process's declaration table. It is written only
// before the seal; afterwards byName and families are read-only.
var declared struct {
	mu       sync.Mutex
	sealed   bool
	byName   map[string]*series
	families []*family // sorted by kind, then name, at the seal
	count    [numKinds]int
}

func declare(name, help string, k kind) *series {
	if !seriesGrammar.MatchString(name) {
		panic(fmt.Sprintf("obs: series name %q is outside the registry grammar %s", name, seriesGrammar))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: series %q declared without help text", name))
	}
	fam, labels := splitSeries(name)
	expo := sanitizeName(fam)
	declared.mu.Lock()
	defer declared.mu.Unlock()
	var f *family
	for _, g := range declared.families {
		if g.name == expo {
			f = g
		}
	}
	if f != nil {
		for _, s := range f.series {
			if s.labels == labels {
				panic(fmt.Sprintf("obs: series %q declared twice (as %q)", name, s.name))
			}
		}
		if f.kind != k || f.help != help {
			panic(fmt.Sprintf("obs: series %q disagrees with its family %s (%s, %q)", name, expo, f.kind, f.help))
		}
	}
	if declared.sealed {
		panic(fmt.Sprintf("obs: series %q declared after a registry was used; declare series at package level", name))
	}
	if f == nil {
		f = &family{name: expo, help: help, kind: k}
		declared.families = append(declared.families, f)
	}
	s := &series{name: name, labels: labels, kind: k, index: declared.count[k]}
	declared.count[k]++
	f.series = append(f.series, s)
	if declared.byName == nil {
		declared.byName = make(map[string]*series)
	}
	declared.byName[name] = s
	return s
}

// seal closes the declaration table and returns the per-kind series
// counts a registry sizes its slices by.
func seal() [numKinds]int {
	declared.mu.Lock()
	defer declared.mu.Unlock()
	if !declared.sealed {
		declared.sealed = true
		sort.Slice(declared.families, func(i, j int) bool {
			a, b := declared.families[i], declared.families[j]
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.name < b.name
		})
		for _, f := range declared.families {
			sort.Slice(f.series, func(i, j int) bool { return f.series[i].name < f.series[j].name })
		}
	}
	return declared.count
}

// lookup returns the declared series of kind k named name, or nil. Call
// it only after the seal (any Registry use).
func lookup(name string, k kind) *series {
	if s := declared.byName[name]; s != nil && s.kind == k {
		return s
	}
	return nil
}

// Counter is a declared monotonic counter series.
type Counter struct{ s *series }

// NewCounter declares a counter series. Call it at package level.
func NewCounter(name, help string) *Counter {
	return &Counter{declare(name, help, kindCounter)}
}

// Add increments the counter in r by n.
func (c *Counter) Add(r *Registry, n int64) {
	r.values().counters[c.s.index].Add(n)
}

// Gauge is a declared gauge series whose value a component computes
// at exposition time (cache sizes, in-flight requests). Unbound, it
// reads 0.
type Gauge struct{ s *series }

// NewGauge declares a gauge series. Call it at package level.
func NewGauge(name, help string) *Gauge {
	return &Gauge{declare(name, help, kindGauge)}
}

// Bind makes fn the gauge's value in r; binding again replaces it. fn
// runs on every scrape and must not block.
func (g *Gauge) Bind(r *Registry, fn func() float64) {
	r.values().gauges[g.s.index].Store(&fn)
}

// Latency is a declared latency histogram series, in seconds over
// DefaultBounds.
type Latency struct{ s *series }

// NewLatency declares a latency histogram series. Call it at package
// level.
func NewLatency(name, help string) *Latency {
	return &Latency{declare(name, help, kindHistogram)}
}

// Observe records seconds into the histogram in r.
func (l *Latency) Observe(r *Registry, seconds float64) {
	r.values().hists[l.s.index].Observe(seconds)
}

// ObserveExemplar records seconds into the histogram in r and, when
// traceID is non-zero, attaches it as the bucket's exemplar, so a
// latency outlier on /metricsz links to the /tracez trace that caused
// it. Untraced requests pass the zero ID and share the call site.
func (l *Latency) ObserveExemplar(r *Registry, seconds float64, traceID TraceID) {
	r.values().hists[l.s.index].ObserveExemplar(seconds, traceID)
}

// phaseHelp is the help text of PhaseFamily.
const phaseHelp = "Wall time of each span (pipeline phase or serving layer), by span name."

// Phase is a declared span name. Its spans' wall times land in the
// PhaseFamily histogram labeled with the name.
type Phase struct {
	name string
	hist *Latency
}

// NewPhase declares a span name and its PhaseSeries histogram. Call it
// at package level.
func NewPhase(name string) *Phase {
	return &Phase{name: name, hist: NewLatency(PhaseSeries(name), phaseHelp)}
}

// Name returns the span name ("tidy").
func (p *Phase) Name() string { return p.name }
