package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"omini/internal/cluster"
	"omini/internal/farm"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// Request identity: the client stamps every request with reqHeader, and
// the cluster coordinator copies it onto the hop, so spans recorded on
// different nodes for one request share the number.
const (
	reqHeader = "X-Bench-Req"
	// fwdHeader marks a request a coordinator forwarded to its owner
	// node (the value of cluster's unexported forwardedHeader).
	fwdHeader = "X-Omini-Forwarded"
)

// Layers the benchmark records spans for itself.
const (
	layerClient = "client" // the client's round trip
	layerFront  = "front"  // a cluster node's coordinator handler
	layerServe  = "serve"  // serve.Server.ServeHTTP
)

// span is one timed layer crossing of one request. A request's spans
// nest in layer order: client, then front (cluster only) and serve on
// the node it entered; a request that node forwards adds a front and a
// serve span with Fwd set on the owner node, inside the entry node's
// front span. The client span is recorded in the benchmark's process,
// the others in the serving process.
type span struct {
	Req   int64  `json:"req"`
	Layer string `json:"layer"`
	Node  string `json:"node,omitempty"`
	// Fwd is set on the owner node's half of a forwarded request.
	Fwd bool `json:"fwd,omitempty"`
	// StartNS is the wall-clock start in Unix nanoseconds, which both
	// processes share.
	StartNS int64 `json:"startNs"`
	DurNS   int64 `json:"durNs"`
}

// tracer keeps spans in memory while on. A nil tracer records nothing
// and wraps nothing, so tracing adds only a nil check to the untraced
// run's request path.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(sp span, start time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	sp.StartNS = start.UnixNano()
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// taken returns a copy of the spans recorded so far; none for a nil
// tracer.
func (t *tracer) taken() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// add appends spans recorded elsewhere.
func (t *tracer) add(sps []span) {
	t.mu.Lock()
	t.spans = append(t.spans, sps...)
	t.mu.Unlock()
}

// wrap records a span of layer around every request h serves.
func (t *tracer) wrap(layer, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			return
		}
		t.record(span{Req: id, Layer: layer, Node: node, Fwd: r.Header.Get(fwdHeader) != "",
			DurNS: time.Since(start).Nanoseconds()}, start)
	})
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The layers below serve.Server are read from the nodes' own
// registries: the pipeline phases, the farm's fast and slow paths and
// the coordinator's hop each record a per-phase histogram, and the
// layers count their work. Series names stay constants at the call
// sites, as ominilint's obsnames analyzer requires.
type registry = resilience.Stats

var (
	pipelinePhases = []string{"tokenize", "tidy", "build", "subtree", "separator", "extract"}
	// phaseSeconds read each phase's total time.
	phaseSeconds = map[string]func(*registry) float64{
		"tokenize":  func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("tokenize")).Sum() },
		"tidy":      func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("tidy")).Sum() },
		"build":     func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("build")).Sum() },
		"subtree":   func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("subtree")).Sum() },
		"separator": func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("separator")).Sum() },
		"extract":   func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("extract")).Sum() },
		"farm.fast": func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("farm.fast")).Sum() },
		"farm.slow": func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("farm.slow")).Sum() },
		"hop":       func(r *registry) float64 { return r.Histogram(obs.PhaseSeries("hop")).Sum() },
	}
	// counters read the work counts, keyed by metric name.
	counters = map[string]func(*registry) int64{
		"farm_hits":         func(r *registry) int64 { return r.Get(farm.SeriesHits) },
		"farm_misses":       func(r *registry) int64 { return r.Get(farm.SeriesMisses) },
		"farm_learns":       func(r *registry) int64 { return r.Get(farm.SeriesLearns) },
		"farm_coalesced":    func(r *registry) int64 { return r.Get(farm.SeriesCoalesced) },
		"farm_evictions":    func(r *registry) int64 { return r.Get(farm.SeriesEvictions) },
		"farm_drift_checks": func(r *registry) int64 { return r.Get(farm.SeriesDriftChecks) },
		"cluster_proxied":   func(r *registry) int64 { return r.Get(cluster.SeriesProxied) },
		"cluster_local":     func(r *registry) int64 { return r.Get(cluster.SeriesLocal) },
		"cluster_failover":  func(r *registry) int64 { return r.Get(cluster.SeriesFailover) },
	}
)

// regSnap sums phase seconds and counters over all nodes.
type regSnap map[string]float64

func (s *system) snapshot() regSnap {
	snap := regSnap{}
	for _, nd := range s.nodes {
		for k, read := range phaseSeconds {
			snap[k] += read(nd.stats)
		}
		for k, read := range counters {
			snap[k] += float64(read(nd.stats))
		}
	}
	return snap
}

// layers turns the spans and the registry deltas over the measured
// window into per-request self times, in milliseconds, of each layer a
// request crosses: client transport, coordinator routing, cluster hop,
// serve middleware and encoding, the farm, and each pipeline phase.
func (t *tracer) layers(before, after regSnap, clustered bool) (map[string]float64, error) {
	var client, front, serveAll, serveFwd float64
	n := 0
	t.mu.Lock()
	for _, sp := range t.spans {
		d := float64(sp.DurNS) / 1e6
		switch {
		case sp.Layer == layerClient:
			client += d
			n++
		case sp.Layer == layerFront && !sp.Fwd:
			front += d
		case sp.Layer == layerServe:
			serveAll += d
			if sp.Fwd {
				serveFwd += d
			}
		}
	}
	t.mu.Unlock()
	if n == 0 {
		return nil, fmt.Errorf("traced run recorded no requests")
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	ms := func(k string) float64 { return delta(k) * 1e3 }
	if ms("tokenize") == 0 {
		return nil, fmt.Errorf("no %s samples in the node registries", obs.PhaseSeries("tokenize"))
	}
	per := float64(n)
	out := map[string]float64{"requests": per}
	var phases float64
	for _, ph := range pipelinePhases {
		phases += ms(ph)
		out[ph+"_ms"] = ms(ph) / per
	}
	farmTime := ms("farm.fast") + ms("farm.slow")
	serveLocal := serveAll - serveFwd
	if !clustered {
		front = serveLocal
	}
	out["client_ms"] = client / per
	out["http_ms"] = (client - front) / per
	out["serve_ms"] = (serveAll - farmTime) / per
	out["farm_ms"] = (farmTime - phases) / per
	if clustered {
		out["route_ms"] = (front - serveLocal - ms("hop")) / per
		out["hop_ms"] = (ms("hop") - serveFwd) / per
	} else {
		out["route_ms"], out["hop_ms"] = 0, 0
	}
	for name := range counters {
		out[name] = delta(name)
	}
	out["farm_hit_ratio"] = 0
	if looked := delta("farm_hits") + delta("farm_misses"); looked > 0 {
		out["farm_hit_ratio"] = delta("farm_hits") / looked
	}
	return out, nil
}
