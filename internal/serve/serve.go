// Package serve implements the HTTP extraction service behind
// cmd/ominiserve: Omini as a component of an information aggregation
// system. Clients POST raw HTML and receive extracted objects or
// wrapper-projected records. Both endpoints serve through the wrapper
// farm (internal/farm): discovered rules are cached per site, so a
// site's first page pays for discovery and the rest take the fast path,
// and /records projects the objects under a record schema learned
// lazily on the same farm entry. A rule that stops matching (the site
// changed) is relearned transparently.
//
// The handler chain is hardened for production traffic: a panic anywhere
// in extraction returns a JSON 500 instead of killing the process, an
// in-flight cap sheds excess load with 429 + Retry-After, every request
// runs under a deadline, and all errors are structured JSON.
//
// Nothing the service does is silent: every extraction runs under the
// obs registry, so /metricsz exposes Prometheus-style counters, gauges
// and per-phase latency histograms, /debug/pprof/* serves the runtime
// profiles, each request emits one structured access-log line with its
// decision summary, and ?trace=1 on /extract returns the full decision
// trace inline.
//
// Extraction requests are additionally distributed-traced: each sampled
// request gets a 128-bit trace ID (adopted from the X-Omini-Trace header
// when a cluster coordinator forwarded it, freshly minted otherwise), its
// handler/farm/pipeline spans are recorded as one span tree, and finished
// traces land in a bounded tail-sampling buffer served by GET /tracez —
// errored and slowest traces are pinned, so the requests worth debugging
// survive buffer churn. The trace ID is stamped into the access-log line,
// JSON error bodies, and the latency histograms' exemplars.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omini/internal/core"
	"omini/internal/extract"
	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/nav"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/rules"
	"omini/internal/wrapgen"
)

// Config tunes the service.
type Config struct {
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxInFlight caps concurrent extractions; excess requests are shed
	// with 429 + Retry-After. 0 selects the default (256); negative
	// disables the cap.
	MaxInFlight int
	// RequestTimeout bounds each extraction request; timed-out requests
	// get 503. It is a context deadline, which the pipeline's governor
	// honours, plus a read deadline on the request body. 0 selects the
	// default (30s); negative disables it.
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint on shed requests (default 1s).
	RetryAfter time.Duration
	// Stats receives the service's metrics (counters, gauges, phase
	// histograms); nil uses resilience.Default (the process registry).
	Stats *resilience.Stats
	// Logger receives the structured access and error log; nil uses
	// obs.DefaultLogger().
	Logger *obs.Logger
	// Limits is the per-extraction resource governor. Zero fields take
	// core.DefaultLimits(); violations surface as 413 (input too
	// large), 422 (budget exceeded) or 504 (page deadline).
	Limits core.Limits
	// RulesFile optionally seeds the rule store from a rules.Save
	// snapshot. Readiness (/readyz) is gated on the load: the server
	// answers 503 until the snapshot is in, so a load balancer or the
	// cluster health checker never routes shard traffic to a node whose
	// caches would miss. Empty means no snapshot and immediate
	// readiness. Farm snapshots (the -rule-store format) load here too.
	RulesFile string
	// RuleStorePath persists the wrapper farm's learned rules as a
	// versioned snapshot: loaded on boot, rewritten by the farm's
	// background sweeps and on Close, so learned rules survive
	// restarts. Empty disables persistence.
	RuleStorePath string
	// RelearnInterval is the farm's background revalidation period:
	// each sweep flags every cached rule for a drift check on its next
	// hit and flushes the rule store if dirty. 0 selects the farm
	// default (1m); negative disables the sweep.
	RelearnInterval time.Duration
	// TraceSampleRate is the fraction of extraction requests traced when
	// the client (or an upstream coordinator) did not decide: 0 selects
	// the default (trace everything), negative disables head sampling.
	// ?trace=1 always traces, and a sampled X-Omini-Trace header always
	// wins — the upstream hop already decided for the whole request.
	TraceSampleRate float64
	// TraceCapacity bounds the tail-sampling trace buffer behind
	// GET /tracez (default obs.DefaultTraceCapacity).
	TraceCapacity int
	// Traces is the trace sink; nil builds one with TraceCapacity. A
	// cluster node shares one sink between its coordinator and server so
	// both halves of a self-served request merge into one trace.
	Traces *obs.TraceSink
	// DeferReady holds /readyz at 503 after the rules load until
	// MarkReady is called. Cluster nodes set it when they sync rules
	// from ring peers on join: the health checker must not route shard
	// traffic to a node whose cache is still filling. Serving itself is
	// never gated — a request that arrives anyway is answered (learn on
	// miss), readiness only steers the routers.
	DeferReady bool
}

const (
	defaultMaxInFlight    = 256
	defaultRequestTimeout = 30 * time.Second
	defaultRetryAfter     = time.Second
)

// requestHelp is the help text of the omini_request_seconds family.
const requestHelp = "Request latency by endpoint; paths outside the public endpoints share one bucket."

// The series this package emits, declared once; every registry exposes
// them (and every other linked component's) from its first use.
var (
	requests  = obs.NewCounter("serve.requests", "Requests served, every endpoint.")
	errors5xx = obs.NewCounter("serve.errors", "Requests answered with a 5xx status.")
	panics    = obs.NewCounter("serve.panics", "Handler panics recovered into a 500.")
	shed      = obs.NewCounter("serve.shed", "Requests shed with 429 past the in-flight cap.")
	ruleStale = obs.NewCounter("serve.rule_stale", "Requests whose cached rule stopped matching and was relearned inline.")

	traceSampled = obs.NewCounter("trace.sampled", "Requests that recorded a trace.")
	traceStored  = obs.NewCounter("trace.stored", "Traces that reached the tail-sampling sink.")
	traceEvicted = obs.NewCounter("trace.evicted", "Traces the full sink displaced.")

	inflightGauge      = obs.NewGauge("serve.inflight", "Requests holding an in-flight slot.")
	traceBufferedGauge = obs.NewGauge("trace.buffered", "Traces held by the tail-sampling sink behind /tracez.")

	reqExtract  = obs.NewLatency(`omini_request_seconds{path="/extract"}`, requestHelp)
	reqRecords  = obs.NewLatency(`omini_request_seconds{path="/records"}`, requestHelp)
	reqRules    = obs.NewLatency(`omini_request_seconds{path="/rules"}`, requestHelp)
	reqRulesz   = obs.NewLatency(`omini_request_seconds{path="/rulesz"}`, requestHelp)
	reqHealthz  = obs.NewLatency(`omini_request_seconds{path="/healthz"}`, requestHelp)
	reqReadyz   = obs.NewLatency(`omini_request_seconds{path="/readyz"}`, requestHelp)
	reqMetricsz = obs.NewLatency(`omini_request_seconds{path="/metricsz"}`, requestHelp)
	reqPprof    = obs.NewLatency(`omini_request_seconds{path="/debug/pprof"}`, requestHelp)
	reqTracez   = obs.NewLatency(`omini_request_seconds{path="/tracez"}`, requestHelp)
	reqOther    = obs.NewLatency(`omini_request_seconds{path="other"}`, requestHelp)

	// phaseHandler is the root span of a traced request.
	phaseHandler = obs.NewPhase("handler")
)

// Server is the HTTP handler. Create with New.
type Server struct {
	cfg       Config
	handler   http.Handler
	extractor *core.Extractor
	limiter   *resilience.Limiter
	stats     *resilience.Stats
	log       *obs.Logger
	traces    *obs.TraceSink
	sampler   *obs.Sampler

	// farm is the rule-cache-first serving layer: sharded rule LRU,
	// singleflight learn-on-miss, drift revalidation, persistence.
	farm *farm.Farm

	// ready flips once the rule store is loaded (immediately when no
	// RulesFile is configured); joined flips once the join-time rule
	// sync finishes (immediately unless Config.DeferReady). /readyz
	// reports the conjunction.
	ready  atomic.Bool
	joined atomic.Bool
}

// New returns a ready-to-serve handler.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.Stats == nil {
		cfg.Stats = resilience.Default
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	if cfg.Traces == nil {
		cfg.Traces = obs.NewTraceSink(cfg.TraceCapacity)
	}
	rate := cfg.TraceSampleRate
	if rate == 0 {
		rate = 1
	}
	s := &Server{
		cfg:       cfg,
		extractor: core.New(core.Options{Limits: cfg.Limits}),
		limiter:   resilience.NewLimiter(cfg.MaxInFlight),
		stats:     cfg.Stats,
		log:       cfg.Logger,
		traces:    cfg.Traces,
		sampler:   obs.NewSampler(rate),
	}
	// The farm shares the server's extractor, registry and logger, so
	// farm.* series land on this server's /metricsz next to serve.*.
	// A corrupt rule store costs a cold cache, never the process
	// (RecoverCorruptStore), so New cannot fail here.
	fm, err := farm.New(farm.Config{
		Extractor:           s.extractor,
		StorePath:           cfg.RuleStorePath,
		RelearnInterval:     cfg.RelearnInterval,
		RecoverCorruptStore: true,
		Stats:               cfg.Stats,
		Logger:              cfg.Logger,
	})
	if err != nil {
		s.log.Error("farm init failed; serving without a rule store", "err", err.Error())
		fm, _ = farm.New(farm.Config{Extractor: s.extractor, Stats: cfg.Stats, Logger: cfg.Logger})
	}
	s.farm = fm
	s.joined.Store(!cfg.DeferReady)
	inflightGauge.Bind(s.stats, func() float64 { return float64(s.limiter.InFlight()) })
	traceBufferedGauge.Bind(s.stats, func() float64 { return float64(s.traces.Len()) })
	s.loadRules()

	// Extraction endpoints run behind the load shed and, from withObs,
	// the request deadline; health, metrics and profiling probes stay
	// outside both so an overloaded server still answers its operators.
	api := http.NewServeMux()
	api.HandleFunc("POST /extract", s.handleExtract)
	api.HandleFunc("POST /records", s.handleRecords)
	api.HandleFunc("GET /rules", s.handleRules)

	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.HandleFunc("GET /rulesz", s.handleRulesz)
	root.HandleFunc("GET /tracez", s.handleTracez)
	root.HandleFunc("GET /metricsz", s.handleMetricsz)
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	// A CPU profile is the one reader of pprof labels: requests are
	// labelled only while a capture runs (obs.Labelled).
	root.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		obs.Capture(func() { pprof.Profile(w, r) })
	})
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root.Handle("/", s.withLimit(api))

	s.handler = s.withObs(s.withRecovery(root))
	return s
}

// ServeHTTP dispatches through the hardened middleware chain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// loadRules seeds the farm from Config.RulesFile and flips the
// readiness gate. Liveness (/healthz) and readiness are deliberately
// split: a process that failed its snapshot load is alive (don't
// restart it into a crash loop) but not ready (don't route to it).
func (s *Server) loadRules() {
	if s.cfg.RulesFile == "" {
		s.ready.Store(true)
		return
	}
	if err := s.farm.SeedFile(s.cfg.RulesFile); err != nil {
		s.log.Error("rules snapshot load failed; staying not-ready",
			"file", s.cfg.RulesFile, "err", err.Error())
		return
	}
	s.log.Info("rules snapshot loaded", "file", s.cfg.RulesFile, "rules", s.farm.Len())
	s.ready.Store(true)
}

// Farm exposes the server's wrapper farm (rule inspection, manual
// saves, test-driven revalidation).
func (s *Server) Farm() *farm.Farm { return s.farm }

// Traces exposes the server's tail-sampling trace sink, so a cluster
// coordinator on the same node can record its routing half of each
// trace into the same buffer.
func (s *Server) Traces() *obs.TraceSink { return s.traces }

// Run drives the farm's background work — drift-sample revalidation
// and periodic store flushes — until ctx is cancelled. cmd/ominiserve
// runs it alongside the HTTP listener; embedded servers may skip it
// and call Farm().Revalidate themselves.
func (s *Server) Run(ctx context.Context) error { return s.farm.Run(ctx) }

// Close final-saves the farm's rule store when it has unsaved changes.
func (s *Server) Close() error { return s.farm.Close() }

// Ready reports whether the server would pass its own /readyz probe.
func (s *Server) Ready() bool { return s.ready.Load() && s.joined.Load() }

// MarkReady releases a Config.DeferReady hold: the join-time rule sync
// finished (or gave up and degraded to learn-on-miss), so the health
// checker may route shard traffic here. Idempotent.
func (s *Server) MarkReady() { s.joined.Store(true) }

// handleReadyz is the readiness probe: 200 once the rule store is
// loaded and any join-time rule sync has finished, 503 before (or
// forever, on a bad snapshot).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "not ready: rules not loaded\n")
	case !s.joined.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "not ready: rule sync in progress\n")
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	}
}

// reqInfo is the per-request decision summary handlers fill in for the
// access log: what was extracted and why, in one line.
type reqInfo struct {
	// query is the request's parsed query string, parsed once by withObs
	// on the extraction endpoints (nil elsewhere).
	query url.Values

	mu         sync.Mutex
	site       string
	separator  string
	subtree    string
	objects    int
	fromRule   bool
	confidence float64
	filled     bool
	errMsg     string
}

// infoFrom returns the request's summary slot, which travels in the
// request's obs state (nil outside withObs).
func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := obs.RequestInfo(ctx).(*reqInfo)
	return ri
}

// fill records the extraction summary for the access log.
func (ri *reqInfo) fill(site string, res *core.Result, fromRule bool) {
	if ri == nil || res == nil {
		return
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.filled = true
	ri.site = site
	ri.separator = res.Separator
	ri.subtree = res.SubtreePath
	ri.objects = len(res.Objects)
	ri.fromRule = fromRule
	ri.confidence = res.Confidence()
}

// setSite records the requested site before the outcome is known, so
// failed requests still carry it in the log line and trace summary.
func (ri *reqInfo) setSite(site string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	ri.site = site
	ri.mu.Unlock()
}

// fail records the error message a failed request returned. First
// write wins: the original failure, not a later fallback's.
func (ri *reqInfo) fail(msg string) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	if ri.errMsg == "" {
		ri.errMsg = msg
	}
	ri.mu.Unlock()
}

// requestLatency buckets request-latency series by endpoint, keeping label
// cardinality bounded regardless of what paths clients probe.
func requestLatency(path string) *obs.Latency {
	switch {
	case path == "/extract":
		return reqExtract
	case path == "/records":
		return reqRecords
	case path == "/rules":
		return reqRules
	case path == "/rulesz":
		return reqRulesz
	case path == "/healthz":
		return reqHealthz
	case path == "/readyz":
		return reqReadyz
	case path == "/metricsz":
		return reqMetricsz
	case path == "/tracez":
		return reqTracez
	case strings.HasPrefix(path, "/debug/pprof"):
		return reqPprof
	default:
		return reqOther
	}
}

// operational marks endpoints whose access-log lines go to Debug rather
// than Info, so scrapers and probes don't flood the log.
func operational(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/rulesz" ||
		path == "/metricsz" || path == "/tracez" ||
		strings.HasPrefix(path, "/debug/pprof")
}

// traceable marks the endpoints whose requests are candidates for
// distributed tracing: the extraction paths. Probes and inspection
// endpoints are never traced — their spans would only churn the sink.
func traceable(r *http.Request) bool {
	return r.Method == http.MethodPost &&
		(r.URL.Path == "/extract" || r.URL.Path == "/records")
}

// withObs threads the metrics registry into the request context (so the
// pipeline's phase spans land in this server's registry), times the
// request, counts it, and emits one structured access-log line carrying
// the handler's decision summary.
//
// It is also the request's trace boundary (obs.Enter): an extraction
// request, or one whose X-Omini-Trace header says sampled, gets a
// "handler" root span; a sampled one also gets a trace recorder, its
// trace ID echoed in the response's X-Omini-Trace header and stamped
// into the log line and the latency histogram's exemplar, and its
// finished span tree recorded into the tail-sampling sink. Recovery
// runs inside it, so a panicked request is counted, logged and traced
// as the 500 it answers.
//
// It also bounds every request outside the operator probes (see
// operational) with the deadline of Config.RequestTimeout, derived
// here so the request is copied once (see requestDeadline).
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{}
		if traceable(r) {
			ri.query = r.URL.Query()
		}
		ctx, stop := s.requestDeadline(r)
		defer stop()
		ctx, b := obs.Enter(ctx, w, r.Header, ri.query, phaseHandler, s.sampler, s.stats, ri)
		defer s.finish(b, r, ri, start)
		next.ServeHTTP(b, r.WithContext(ctx))
		answerLate(ctx, &b.StatusWriter)
	})
}

// finish closes one request's trace boundary: it counts the request,
// observes its latency (with the trace as exemplar), records its trace
// into the tail-sampling sink, and writes its access-log line.
func (s *Server) finish(b *obs.Boundary, r *http.Request, ri *reqInfo, start time.Time) {
	t := b.End()
	elapsed := time.Since(start)
	status := b.Status()
	requests.Add(s.stats, 1)
	if status >= 500 {
		errors5xx.Add(s.stats, 1)
	}
	tid := b.TraceID()
	requestLatency(r.URL.Path).ObserveExemplar(s.stats, elapsed.Seconds(), tid)
	if t != nil {
		traceSampled.Add(s.stats, 1)
		t.Op = r.URL.Path
		t.Path = t.Attrs["path"]
		ri.mu.Lock()
		t.Site = ri.site
		t.Error = ri.errMsg
		ri.mu.Unlock()
		if evicted := s.traces.Record(t); evicted > 0 {
			traceEvicted.Add(s.stats, int64(evicted))
		}
		traceStored.Add(s.stats, 1)
	}

	// Typed fields in a local array: the line boxes no value.
	var fields [12]obs.Field
	f := append(fields[:0],
		obs.String("method", r.Method),
		obs.String("path", r.URL.Path),
		obs.Int("status", status),
		obs.Float64("durMs", float64(elapsed.Microseconds())/1000),
	)
	if !tid.IsZero() {
		f = append(f, obs.TraceIDField("trace", tid))
	}
	ri.mu.Lock()
	if ri.filled {
		f = append(f,
			obs.String("site", ri.site),
			obs.String("subtree", ri.subtree),
			obs.String("separator", ri.separator),
			obs.Int("objects", ri.objects),
			obs.Bool("fromRule", ri.fromRule),
			obs.Float64("confidence", ri.confidence),
		)
	}
	if ri.errMsg != "" {
		f = append(f, obs.String("err", ri.errMsg))
	}
	ri.mu.Unlock()
	lv := obs.LevelInfo
	if operational(r.URL.Path) {
		lv = obs.LevelDebug
	}
	s.log.LogFields(lv, "request", f...)
}

// withRecovery converts handler panics into JSON 500s: one pathological
// page must cost one request, never the process. The panic is counted and
// logged with its stack through the structured logger, so it is visible on
// /metricsz and in the log stream, not only in the failed response.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // deliberate connection abort
				panic(rec)
			}
			panics.Add(s.stats, 1)
			trace := ""
			if tid := obs.TraceIDFrom(r.Context()); !tid.IsZero() {
				trace = tid.String()
			}
			s.log.Error("recovered panic",
				"method", r.Method,
				"path", r.URL.Path,
				"trace", trace,
				"panic", fmt.Sprint(rec),
				"stack", string(debug.Stack()),
			)
			writeError(r.Context(), w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// withLimit sheds requests past the in-flight cap with 429 + Retry-After.
func (s *Server) withLimit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.limiter.TryAcquire() {
			shed.Add(s.stats, 1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeError(r.Context(), w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		defer s.limiter.Release()
		next.ServeHTTP(w, r)
	})
}

// errRequestTimeout is the cancellation cause of a request that ran
// past Config.RequestTimeout.
var errRequestTimeout = errors.New("serve: request timed out")

// timeoutBody is the 503 answer to a request that ran out of time.
var timeoutBody, _ = json.Marshal(errorResponse{Error: "request timed out", Status: http.StatusServiceUnavailable})

// requestDeadline returns r's context bounded by Config.RequestTimeout,
// with errRequestTimeout as the cause, and the function releasing it.
// The governor stops the pipeline at its next poll and httpError
// answers 503; the context cannot interrupt a body read, so readPage
// bounds that with the connection's read deadline. Probes, and every
// request when RequestTimeout <= 0, run without a deadline, so an
// overloaded server still answers its operators.
func (s *Server) requestDeadline(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 || operational(r.URL.Path) {
		return r.Context(), func() {}
	}
	return context.WithTimeoutCause(r.Context(), s.cfg.RequestTimeout, errRequestTimeout)
}

// answerLate gives a handler that returned without writing after its
// request's deadline the 503 of a timed-out request.
func answerLate(ctx context.Context, w *obs.StatusWriter) {
	if !w.Wrote() && timedOut(ctx) {
		writeTimeout(ctx, w)
	}
}

// timedOut reports whether the request ran past its RequestTimeout.
func timedOut(ctx context.Context) bool {
	return errors.Is(context.Cause(ctx), errRequestTimeout)
}

// writeTimeout answers a request that ran out of time with 503 and the
// fixed timeout body.
func writeTimeout(ctx context.Context, w http.ResponseWriter) {
	infoFrom(ctx).fail("request timed out")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write(timeoutBody)
}

// handleMetricsz serves the registry as Prometheus-style text: counters,
// gauges, and the per-phase latency histograms with p50/p95/p99.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.stats.WritePrometheus(w); err != nil {
		s.log.Error("metricsz write failed", "err", err)
	}
}

// extractAnswer is one /extract answer, encoded by appendJSON as
//
//	{"site":…,"subtreePath":…,"separator":…,"confidence":…,"fromRule":…,
//	 "nextPage":…,"objects":[{"index":1,"text":…,"sizeBytes":…},…],"trace":{…}}
//
// with site, nextPage and trace omitted when empty.
type extractAnswer struct {
	site        string
	subtreePath string
	separator   string
	confidence  float64
	fromRule    bool
	// nextPage is the discovered next-result-page link, when the page
	// has one — the crawl pointer an aggregator follows.
	nextPage string
	objects  []extract.Object
	// trace is the decision trace, present when the request asked for
	// it with ?trace=1.
	trace *obs.DecisionTrace
}

// appendJSON appends the answer to b exactly as encoding/json's
// Encoder writes the equivalent struct: strings HTML-escaped, the
// float in encoding/json's format, a null for an empty object list,
// and a trailing newline. Each object's text is rendered into text, a
// scratch buffer returned for reuse, and escaped from there, so an
// object costs no allocation. ok is false, and nothing belongs on the
// wire, where Encode would fail: a confidence that is not finite, or
// a trace that does not marshal.
func (a *extractAnswer) appendJSON(b, text []byte) (out, scratch []byte, ok bool) {
	b = append(b, '{')
	if a.site != "" {
		b = append(b, `"site":`...)
		b = obs.AppendJSONString(b, a.site)
		b = append(b, ',')
	}
	b = append(b, `"subtreePath":`...)
	b = obs.AppendJSONString(b, a.subtreePath)
	b = append(b, `,"separator":`...)
	b = obs.AppendJSONString(b, a.separator)
	b = append(b, `,"confidence":`...)
	if b, ok = obs.AppendJSONFloat(b, a.confidence, 64); !ok {
		return b, text, false
	}
	b = append(b, `,"fromRule":`...)
	b = strconv.AppendBool(b, a.fromRule)
	if a.nextPage != "" {
		b = append(b, `,"nextPage":`...)
		b = obs.AppendJSONString(b, a.nextPage)
	}
	b = append(b, `,"objects":`...)
	if len(a.objects) == 0 {
		b = append(b, "null"...)
	} else {
		for i, o := range a.objects {
			if i == 0 {
				b = append(b, `[{"index":`...)
			} else {
				b = append(b, `,{"index":`...)
			}
			b = strconv.AppendInt(b, int64(i+1), 10)
			b = append(b, `,"text":`...)
			text = o.AppendText(text[:0])
			b = obs.AppendJSONString(b, text)
			b = append(b, `,"sizeBytes":`...)
			b = strconv.AppendInt(b, int64(o.Size()), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if a.trace != nil {
		// Off the hot path: only ?trace=1 carries it.
		enc, err := json.Marshal(a.trace)
		if err != nil {
			return b, text, false
		}
		b = append(b, `,"trace":`...)
		b = append(b, enc...)
	}
	return append(b, '}', '\n'), text, true
}

// answerBuf is the reused encoding state of one answer: the response
// bytes, /extract's object-text scratch and /records' key scratch.
type answerBuf struct {
	out, text []byte
	keys      []string
}

// release returns the buffer to answerBufs holding the grown scratch,
// unless one huge answer grew it past maxPooledAnswer.
func (buf *answerBuf) release(out, text []byte, keys []string) {
	if cap(out) > maxPooledAnswer || cap(text) > maxPooledAnswer || cap(keys) > maxPooledAnswer/16 {
		return
	}
	buf.out, buf.text, buf.keys = out, text, keys
	answerBufs.Put(buf)
}

// maxPooledAnswer caps the bytes of the buffers that go back to
// answerBufs, so one huge answer does not pin its buffer.
const maxPooledAnswer = 256 << 10

var answerBufs = sync.Pool{New: func() any { return &answerBuf{out: make([]byte, 0, 4<<10)} }}

// handleExtract answers /extract. The page is released once the answer
// is written: nothing the request leaves behind (the access-log
// summary, the trace, the farm's rule) points into it.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	q := infoFrom(r.Context()).query
	p, site, ok := s.readPage(w, r, q)
	if !ok {
		return
	}
	defer p.Release()
	ctx := r.Context()
	infoFrom(ctx).setSite(site)
	var res *core.Result
	var fromRule bool
	var err error
	obs.Labelled(ctx, obs.Label{Key: "site", Value: site}, func(pctx context.Context) {
		res, fromRule, err = s.extract(pctx, site, p)
	})
	if err != nil {
		httpError(ctx, w, err)
		return
	}
	infoFrom(ctx).fill(site, res, fromRule)
	a := extractAnswer{
		site:        site,
		subtreePath: res.SubtreePath,
		separator:   res.Separator,
		confidence:  res.Confidence(),
		fromRule:    fromRule,
		objects:     res.Objects,
	}
	if obs.WantTrace(q) {
		// The inline trace ships only on request; sampled requests that
		// did not ask still reach /tracez by trace ID.
		a.trace = res.Trace
	}
	if res.Tree != nil {
		if next, ok := nav.FindNext(res.Tree); ok {
			a.nextPage = next
		}
	}
	buf := answerBufs.Get().(*answerBuf)
	out, text, ok := a.appendJSON(buf.out[:0], buf.text)
	w.Header().Set("Content-Type", "application/json")
	if ok {
		_, _ = w.Write(out)
	}
	buf.release(out, text, buf.keys)
}

// recordsAnswer is one /records answer, encoded by appendJSON as
//
//	{"site":…,"fields":[…],"records":[…]}
//
// with each field and record in wrapgen's encoding of it.
type recordsAnswer struct {
	site    string
	fields  []wrapgen.Field
	records []wrapgen.Record
}

// appendJSON appends the answer to b exactly as encoding/json's Encoder
// writes the equivalent struct: the site HTML-escaped, nil slices as
// null, each field and record as wrapgen encodes it, and a trailing
// newline. keys is the records' key-sorting scratch, returned for
// reuse. ok is false, and nothing belongs on the wire, where Encode
// would fail: a support that is not finite.
func (a *recordsAnswer) appendJSON(b []byte, keys []string) (out []byte, scratch []string, ok bool) {
	b = append(b, `{"site":`...)
	b = obs.AppendJSONString(b, a.site)
	b = append(b, `,"fields":`...)
	if a.fields == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range a.fields {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = a.fields[i].AppendJSON(b); !ok {
				return b, keys, false
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"records":`...)
	if a.records == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, rec := range a.records {
			if i > 0 {
				b = append(b, ',')
			}
			b, keys = rec.AppendJSON(b, keys)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), keys, true
}

// handleRecords serves /records through the same farm path as
// /extract, then projects the objects under the site's record schema,
// cached on the farm entry next to the rule that produced them. The
// page is released once the answer is written.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	p, site, ok := s.readPage(w, r, infoFrom(r.Context()).query)
	if !ok {
		return
	}
	defer p.Release()
	ctx := r.Context()
	if site == "" {
		writeError(ctx, w, http.StatusBadRequest, "records endpoint requires ?site=")
		return
	}
	infoFrom(ctx).setSite(site)
	var res *core.Result
	var fromRule bool
	var wrapper *wrapgen.Wrapper
	var err error
	obs.Labelled(ctx, obs.Label{Key: "site", Value: site}, func(pctx context.Context) {
		if res, fromRule, err = s.extract(pctx, site, p); err == nil {
			served := res
			wrapper, res, err = s.farm.Wrapper(pctx, site, p, res)
			// A page Wrapper relearned was served by discovery.
			fromRule = fromRule && res == served
		}
	})
	if err != nil {
		httpError(ctx, w, err)
		return
	}
	infoFrom(ctx).fill(site, res, fromRule)
	a := recordsAnswer{site: site, fields: wrapper.Fields, records: wrapper.Project(res.Objects)}
	buf := answerBufs.Get().(*answerBuf)
	out, keys, ok := a.appendJSON(buf.out[:0], buf.keys)
	w.Header().Set("Content-Type", "application/json")
	if ok {
		_, _ = w.Write(out)
	}
	buf.release(out, buf.text, keys)
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	// The legacy array format, so dumps keep working as -rules seeds.
	st := rules.NewStore()
	for _, sr := range s.farm.Rules() {
		_ = st.Put(sr.Rule)
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := st.WriteTo(w); err != nil {
		httpError(r.Context(), w, err)
	}
}

// ruleszRule is one row of the /rulesz farm inspection view.
type ruleszRule struct {
	Site        string    `json:"site"`
	SubtreePath string    `json:"subtreePath"`
	Separator   string    `json:"separator"`
	Version     int       `json:"version"`
	LearnedAt   time.Time `json:"learnedAt"`
	Hits        int64     `json:"hits"`
	// SignaturePaths sizes the training signature backing drift checks;
	// 0 means the rule cannot be drift-checked until relearned.
	SignaturePaths int `json:"signaturePaths"`
}

// ruleszResponse is the /rulesz payload: farm totals plus one row per
// cached rule.
type ruleszResponse struct {
	Rules      int          `json:"rules"`
	StoreBytes int64        `json:"storeBytes"`
	Etag       string       `json:"etag"`
	Tombstones int          `json:"tombstones"`
	Sites      []ruleszRule `json:"sites"`
}

// ruleszDigest is the ?view=digest payload: the farm's per-site rule
// and tombstone versions plus their etag — everything a ruledist peer
// needs to decide which sites to pull, without any rule bodies.
type ruleszDigest struct {
	Etag       string         `json:"etag"`
	Rules      map[string]int `json:"rules"`
	Tombstones map[string]int `json:"tombstones"`
}

// handleRulesz serves the farm's per-site state. The default view is
// the human inspection listing; ?view=digest returns the version
// vector (with ETag / If-None-Match negotiation, so a steady-state
// anti-entropy poll costs one 304), and ?view=sync returns the farm's
// canonical wire snapshot, optionally filtered to ?sites=a,b,c — the
// incremental transfer a joining node pulls from its ring neighbors.
func (s *Server) handleRulesz(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("view") {
	case "digest":
		s.serveRuleszDigest(w, r)
		return
	case "sync":
		s.serveRuleszSync(w, r)
		return
	}
	stored := s.farm.Rules()
	resp := ruleszResponse{
		Rules:      len(stored),
		StoreBytes: s.farm.StoreBytes(),
		Etag:       s.farm.Etag(),
		Tombstones: s.farm.TombstoneCount(),
		Sites:      make([]ruleszRule, 0, len(stored)),
	}
	for _, r := range stored {
		resp.Sites = append(resp.Sites, ruleszRule{
			Site:           r.Site,
			SubtreePath:    r.SubtreePath,
			Separator:      r.Separator,
			Version:        r.Version,
			LearnedAt:      r.LearnedAt,
			Hits:           r.Hits,
			SignaturePaths: len(r.Signature),
		})
	}
	writeJSON(w, resp)
}

// notModified answers an If-None-Match probe against the farm etag,
// reporting whether a 304 was written. The ETag header is set either
// way, so pollers always learn the current value.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", `"`+etag+`"`)
	match := strings.Trim(r.Header.Get("If-None-Match"), `"`)
	if match == "" || match != etag {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// serveRuleszDigest serves the version-vector digest view.
func (s *Server) serveRuleszDigest(w http.ResponseWriter, r *http.Request) {
	etag := s.farm.Etag()
	if notModified(w, r, etag) {
		return
	}
	ruleV, tombV := s.farm.VersionVector()
	writeJSON(w, ruleszDigest{Etag: etag, Rules: ruleV, Tombstones: tombV})
}

// serveRuleszSync serves the farm's canonical snapshot (the same codec
// the rule store persists, so a truncated or corrupt transfer fails
// decode on the puller and is discarded whole). Only the unfiltered
// view participates in ETag negotiation — a ?sites= subset has no
// stable identity of its own.
func (s *Server) serveRuleszSync(w http.ResponseWriter, r *http.Request) {
	var sites []string
	if raw := r.URL.Query().Get("sites"); raw != "" {
		for _, site := range strings.Split(raw, ",") {
			if site = strings.TrimSpace(site); site != "" {
				sites = append(sites, site)
			}
		}
	}
	if len(sites) == 0 && notModified(w, r, s.farm.Etag()) {
		return
	}
	data, err := farm.EncodeSnapshot(s.farm.SyncSnapshot(sites))
	if err != nil {
		httpError(r.Context(), w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// tracezResponse is the /tracez list payload.
type tracezResponse struct {
	// Capacity is the sink's bound; Stored is how many traces it holds.
	Capacity int `json:"capacity"`
	Stored   int `json:"stored"`
	// Traces are the stored trace summaries, newest first.
	Traces []obs.TraceSummary `json:"traces"`
}

// handleTracez serves the tail-sampled trace buffer: the summary list
// by default, one full trace (span tree, attributes, governor charges)
// with ?id=<traceId>.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("id"); raw != "" {
		// A malformed ID misses like an unknown one; the zero ID is never
		// stored.
		var id obs.TraceID
		err := id.UnmarshalText([]byte(raw))
		t, ok := s.traces.Get(id)
		if err != nil || !ok {
			writeError(r.Context(), w, http.StatusNotFound, "trace not found: "+raw)
			return
		}
		writeJSON(w, t)
		return
	}
	writeJSON(w, tracezResponse{
		Capacity: s.traces.Capacity(),
		Stored:   s.traces.Len(),
		Traces:   s.traces.List(),
	})
}

// extract serves through the wrapper farm: cached-rule fast path on a
// hit, singleflight learn-on-miss otherwise, transparent relearn when
// a rule stops matching. The context carries the server's registry
// (phase spans) and, on traced requests, the trace recorder.
func (s *Server) extract(ctx context.Context, site string, p *core.Page) (*core.Result, bool, error) {
	res, out, err := s.farm.Extract(ctx, site, p)
	if err != nil {
		return nil, false, err
	}
	if out.Relearned {
		ruleStale.Add(s.stats, 1)
	}
	return res, out.FromRule, nil
}

// readPage reads the request body into a pooled page and validates it
// and the site parameter of the request's query q. The request's
// deadline bounds the read as the connection's read deadline; a read
// it cuts off answers the timeout's 503. The caller releases the page
// of an ok read; a failed read releases it here.
func (s *Server) readPage(w http.ResponseWriter, r *http.Request, q url.Values) (p *core.Page, site string, ok bool) {
	deadline, _ := r.Context().Deadline()
	p = core.GetPage()
	body, err := resilience.ReadBody(w, r, deadline, s.cfg.MaxBodyBytes, p.Buffer())
	p.SetBody(body)
	switch {
	case errors.Is(err, resilience.ErrTooLarge):
		writeError(r.Context(), w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d-byte limit", s.cfg.MaxBodyBytes))
	case err != nil:
		if errors.Is(err, os.ErrDeadlineExceeded) || timedOut(r.Context()) {
			writeTimeout(r.Context(), w)
		} else {
			writeError(r.Context(), w, http.StatusBadRequest, "read body: "+err.Error())
		}
	case len(body) == 0:
		writeError(r.Context(), w, http.StatusBadRequest, "empty body")
	default:
		return p, q.Get("site"), true
	}
	p.Release()
	return nil, "", false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// errorResponse is the structured error payload every failure returns.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// TraceID correlates the failure with its /tracez record, access-log
	// line and histogram exemplars, when the request was traced.
	TraceID obs.TraceID `json:"traceId,omitzero"`
}

// writeError sends a structured JSON error with the given status,
// stamping the context's trace ID (when traced) into the body and the
// request's log summary.
func writeError(ctx context.Context, w http.ResponseWriter, status int, msg string) {
	infoFrom(ctx).fail(msg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Status: status, TraceID: obs.TraceIDFrom(ctx)})
}

// httpError maps extraction failures to status codes. A deadline
// that is the request timeout's, not the page's, answers the request
// timeout's 503.
func httpError(ctx context.Context, w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var lim *govern.ErrLimitExceeded
	switch {
	case errors.Is(err, context.DeadlineExceeded) && timedOut(ctx):
		writeTimeout(ctx, w)
		return
	case errors.As(err, &lim):
		// An oversized input is the client's fault (413); any other
		// blown budget means the page is structurally unprocessable
		// under the configured limits (422).
		status = http.StatusUnprocessableEntity
		if lim.Kind == govern.KindInput {
			status = http.StatusRequestEntityTooLarge
		}
	case errors.Is(err, govern.ErrDeadline):
		status = http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNoObjects),
		errors.Is(err, wrapgen.ErrNoObjects),
		errors.Is(err, wrapgen.ErrNoFields):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrRuleMismatch):
		status = http.StatusConflict
	}
	writeError(ctx, w, status, err.Error())
}
