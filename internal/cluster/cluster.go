// Package cluster is the horizontal scale-out layer of ominiserve: a
// stdlib-only (HTTP/JSON) cluster mode in which a coordinator/proxy
// consistent-hash-partitions sites onto member nodes, so each node's
// wrapper farm (internal/farm) stays hot for its shard (the paper's
// Table 17 fast path only pays off when repeat traffic for a host lands
// on the node whose farm learned its rule — TestFarmShardAffinity pins
// this to exactly one discovery per site cluster-wide).
//
// Membership is tracked by periodic health checks (/healthz liveness
// plus /readyz readiness on every node) with failure-count-based
// ejection and automatic re-admission; ejecting a node rebuilds the
// ring so its shard remaps to the survivors. The routing path reuses
// internal/resilience end to end: a circuit breaker per node, capped
// backoff+jitter retries per hop, and failover to the next node on
// the ring when a hop fails. Downstream load-shed responses (429/503
// with Retry-After) are honored — relayed to the client, never
// retried blindly — and when every peer for a shard is down the
// coordinator degrades to local extraction instead of erroring.
//
// Everything is governed (a govern.Guard is charged in every routing,
// health and dispatch loop; each request runs under a routing budget
// derived from the govern deadline, split into per-hop budgets) and
// observable (the cluster.* series, per-node latency quantiles on
// GET /clusterz, an X-Omini-Node header plus a "node" field in routed
// JSON responses recording which node served).
//
// Routed requests are distributed-traced end to end: the coordinator
// makes one sampling decision per request at its obs trace boundary,
// records "route" and "hop" spans, and its client's obs.Transport
// forwards the hop span's context in the X-Omini-Trace header, so the
// serving node's handler and pipeline spans parent into the
// coordinator's span tree under one 128-bit trace ID. Both halves land
// in the tail-sampling sink behind the nodes' GET /tracez.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	rpprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// Config tunes a Coordinator. Local is required; everything else has
// defaults.
type Config struct {
	// Self is this node's ID among Peers. Requests whose shard is
	// owned by Self are served by Local without a network hop. Empty
	// means a pure coordinator that is not itself a ring member.
	Self string
	// Peers maps node ID → base URL ("http://host:port") for every
	// cluster member, including Self when this node is one.
	Peers map[string]string
	// Local is the local extraction handler (the serve.Server): the
	// self shard, the pass-through for unrouted requests, and the
	// degraded fallback when every peer for a shard is down.
	Local http.Handler
	// Replicas is the number of virtual ring points per node
	// (default 64).
	Replicas int
	// FailThreshold is the number of consecutive failed health probes
	// that ejects a node from the ring (default 3). One successful
	// probe re-admits it.
	FailThreshold int
	// ProbeInterval is the health-check period (default 1s);
	// ProbeTimeout bounds each probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// NodeAttempts is how many times one hop is tried (with capped
	// backoff+jitter) before failing over to the next node on the
	// ring (default 2).
	NodeAttempts int
	// RetryBase / RetryMaxDelay shape the per-hop backoff
	// (defaults 25ms / 250ms).
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// Breaker tunes the per-node circuit breakers. Zero fields take
	// the resilience defaults.
	Breaker resilience.BreakerConfig
	// Budget is the per-request routing deadline, the cluster
	// equivalent of the govern page deadline: the candidate walk, all
	// hops included, must finish inside it. It is split into per-hop
	// budgets so one slow node cannot eat the whole request
	// (default govern.Default().Deadline).
	Budget time.Duration
	// MaxBodyBytes caps routed request bodies (default 8 MiB; the
	// body must be buffered for replay across hops).
	MaxBodyBytes int64
	// Stats receives the cluster.* metrics; nil uses
	// resilience.Default (the process registry).
	Stats *resilience.Stats
	// Logger receives the routing and membership log; nil uses
	// obs.DefaultLogger().
	Logger *obs.Logger
	// Client performs proxy hops and health probes; nil uses a
	// dedicated client with sane connection reuse. The coordinator
	// sends through a copy whose transport stamps the trace header.
	Client *http.Client
	// Traces receives the coordinator's half of each traced request's
	// span tree. Share the local serve.Server's sink so the route and
	// handler halves of a self-served request merge into one trace on
	// /tracez; nil builds a private sink.
	Traces *obs.TraceSink
	// TraceSampleRate is the fraction of routed requests traced when
	// the client did not decide (0 = all, negative = none). The
	// coordinator's decision is forwarded in the X-Omini-Trace header,
	// so the serving node never samples independently.
	TraceSampleRate float64
	// OnReadmission, when set, is called (outside the membership lock,
	// once per transition) with a node's id each time the health
	// checker re-admits it to the ring after an ejection. ominiserve
	// hooks the ruledist replicator here: a node coming back has been
	// missing writes, so a sync round is due immediately, not at the
	// next anti-entropy tick.
	OnReadmission func(id string)
}

// member is the coordinator's view of one cluster node. Mutable state
// is guarded by the coordinator's mu; the latency histogram and
// served counter are internally synchronized.
type member struct {
	id  string
	url string

	healthy bool   // admitted to the ring
	fails   int    // consecutive failed probes
	lastErr string // last probe failure, for /clusterz

	lat    *obs.Histogram  // proxy-hop latency to this node
	served atomic.Int64    // requests this node answered for us
	labels rpprof.LabelSet // the pprof hop label of a hop to this node
}

// Coordinator routes extraction requests across the cluster. Create
// with New; it serves HTTP (wrap it where Local was), and Run drives
// the health checker.
type Coordinator struct {
	cfg      Config
	self     string
	local    http.Handler
	client   *http.Client
	stats    *resilience.Stats
	log      *obs.Logger
	breakers *resilience.BreakerGroup
	retry    *resilience.RetryPolicy
	handler  http.Handler
	traces   *obs.TraceSink
	sampler  *obs.Sampler

	mu      sync.RWMutex
	members map[string]*member
	ring    *hashRing
}

const (
	defaultFailThreshold = 3
	defaultProbeInterval = time.Second
	defaultProbeTimeout  = 2 * time.Second
	defaultNodeAttempts  = 2
	defaultRetryBase     = 25 * time.Millisecond
	defaultRetryMaxDelay = 250 * time.Millisecond
	defaultMaxBody       = 8 << 20
)

// New returns a coordinator for the configured peer set. The ring
// starts with every peer admitted; the health checker (Run) ejects
// the ones that turn out to be down.
func New(cfg Config) *Coordinator {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = defaultFailThreshold
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = defaultProbeTimeout
	}
	if cfg.NodeAttempts <= 0 {
		cfg.NodeAttempts = defaultNodeAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = defaultRetryMaxDelay
	}
	if cfg.Budget <= 0 {
		cfg.Budget = govern.Default().Deadline
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	if cfg.Stats == nil {
		cfg.Stats = resilience.Default
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	if cfg.Traces == nil {
		cfg.Traces = obs.NewTraceSink(0)
	}
	rate := cfg.TraceSampleRate
	if rate == 0 {
		rate = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	// Every hop and probe goes through the trace boundary's transport:
	// a hop carries its span's decision, a probe (no trace in its
	// context) no header at all.
	client = obs.TracingClient(client)
	bcfg := cfg.Breaker
	bcfg.Stats = cfg.Stats
	c := &Coordinator{
		cfg:      cfg,
		self:     cfg.Self,
		local:    cfg.Local,
		client:   client,
		stats:    cfg.Stats,
		log:      cfg.Logger,
		breakers: resilience.NewBreakerGroup(bcfg),
		retry: &resilience.RetryPolicy{
			MaxAttempts: cfg.NodeAttempts,
			BaseDelay:   cfg.RetryBase,
			MaxDelay:    cfg.RetryMaxDelay,
			Stats:       cfg.Stats,
		},
		traces:  cfg.Traces,
		sampler: obs.NewSampler(rate),
		members: make(map[string]*member, len(cfg.Peers)),
	}
	for id, url := range cfg.Peers {
		c.members[id] = &member{id: id, url: url, healthy: true, lat: obs.NewHistogram(nil), labels: rpprof.Labels("hop", id)}
	}
	c.mu.Lock()
	// A fresh coordinator admits everyone; membership list and replica
	// count are boot configuration, so the unguarded build cannot spin.
	c.ring = c.rebuildLocked(nil)
	c.mu.Unlock()
	ringNodesGauge.Bind(c.stats, func() float64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return float64(c.ring.size())
	})
	peersGauge.Bind(c.stats, func() float64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return float64(len(c.members))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("GET /clusterz", c.handleClusterz)
	mux.HandleFunc("/", c.handleRoot)
	c.handler = mux
	return c
}

// rebuildLocked rebuilds the ring from the currently admitted members;
// callers hold c.mu.
func (c *Coordinator) rebuildLocked(g *govern.Guard) *hashRing {
	nodes := make([]string, 0, len(c.members))
	for id, m := range c.members {
		if err := g.Poll(); err != nil {
			return c.ring // cancelled mid-rebuild: keep the old ring
		}
		if m.healthy {
			nodes = append(nodes, id)
		}
	}
	ring, err := buildRing(g, nodes, c.cfg.Replicas)
	if err != nil {
		return c.ring
	}
	return ring
}

// ServeHTTP dispatches to the router (site-carrying extraction
// requests) or the local handler (everything else).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// forwardedHeader marks proxied requests so a symmetric deployment
// (every node running -cluster) serves them locally instead of
// re-routing: one hop, never a proxy chain or loop.
const forwardedHeader = "X-Omini-Forwarded"

// nodeHeader names the node that served a routed response.
const nodeHeader = "X-Omini-Node"

// routable returns the query of a request that goes through the ring:
// an extraction POST carrying a site, not already forwarded by a peer,
// with at least one node to route to. It returns nil for any other
// request.
func (c *Coordinator) routable(r *http.Request) url.Values {
	if r.Method != http.MethodPost {
		return nil
	}
	if p := r.URL.Path; p != "/extract" && p != "/records" {
		return nil
	}
	if r.Header.Get(forwardedHeader) != "" {
		return nil
	}
	q := r.URL.Query()
	if q.Get("site") == "" {
		return nil
	}
	c.mu.RLock()
	n := len(c.members)
	c.mu.RUnlock()
	if n == 0 {
		return nil
	}
	return q
}

func (c *Coordinator) handleRoot(w http.ResponseWriter, r *http.Request) {
	if q := c.routable(r); q != nil {
		c.route(w, r, q)
		return
	}
	c.local.ServeHTTP(w, r)
}

// nodeStatus is one member's row in the /clusterz payload.
type nodeStatus struct {
	ID      string  `json:"id"`
	URL     string  `json:"url"`
	Self    bool    `json:"self,omitempty"`
	Healthy bool    `json:"healthy"`
	Fails   int     `json:"fails,omitempty"`
	LastErr string  `json:"lastErr,omitempty"`
	Served  int64   `json:"served"`
	P50Ms   float64 `json:"p50Ms"`
	P99Ms   float64 `json:"p99Ms"`
}

// clusterzResponse is the GET /clusterz payload: ring membership,
// per-node health, and per-node latency quantiles.
type clusterzResponse struct {
	Self      string       `json:"self,omitempty"`
	RingNodes int          `json:"ringNodes"`
	Peers     int          `json:"peers"`
	Nodes     []nodeStatus `json:"nodes"`
}

func (c *Coordinator) handleClusterz(w http.ResponseWriter, _ *http.Request) {
	c.mu.RLock()
	resp := clusterzResponse{
		Self:      c.self,
		RingNodes: c.ring.size(),
		Peers:     len(c.members),
		Nodes:     make([]nodeStatus, 0, len(c.members)),
	}
	for _, m := range c.members {
		snap := m.lat.Snapshot()
		resp.Nodes = append(resp.Nodes, nodeStatus{
			ID:      m.id,
			URL:     m.url,
			Self:    m.id == c.self,
			Healthy: m.healthy,
			Fails:   m.fails,
			LastErr: m.lastErr,
			Served:  m.served.Load(),
			P50Ms:   snap.Quantile(0.50) * 1000,
			P99Ms:   snap.Quantile(0.99) * 1000,
		})
	}
	c.mu.RUnlock()
	sortNodes(resp.Nodes)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// sortNodes orders the /clusterz rows by ID for stable output.
func sortNodes(nodes []nodeStatus) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j].ID < nodes[j-1].ID; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

// errorResponse mirrors serve's structured JSON error payload, so
// cluster-originated failures look identical to node-originated ones.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// TraceID correlates the failure with its /tracez record, when the
	// request was traced.
	TraceID obs.TraceID `json:"traceId,omitzero"`
}

// writeError sends a structured JSON error with the given status,
// stamping the context's trace ID (when traced) into the body.
func writeError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Status: status, TraceID: obs.TraceIDFrom(ctx)})
}
