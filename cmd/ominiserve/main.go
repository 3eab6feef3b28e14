// Command ominiserve runs Omini as an HTTP extraction service — the
// "scalable information search and aggregation services" deployment the
// paper positions Omini inside (its Figure 3 takes requests from users
// *and applications*). Aggregators POST pages and receive structured
// objects; learned rules are cached per site so repeat extractions take
// the fast path.
//
//	ominiserve -addr :8800 &
//	curl -s --data-binary @page.html 'localhost:8800/extract?site=www.example.com'
//	curl -s --data-binary @page.html 'localhost:8800/records?site=www.example.com'
//	curl -s 'localhost:8800/rules'
//
// Endpoints:
//
//	POST /extract?site=S   -> objects, subtree path, separator, confidence
//	POST /extract?trace=1  -> same, plus the inline JSON decision trace
//	POST /records?site=S   -> wrapper records (named fields), served through
//	                          the same cached rule as /extract; the record
//	                          schema is learned on first use (not persisted)
//	GET  /rules            -> the cached extraction rules as JSON
//	GET  /rulesz           -> wrapper-farm state: per-site rule versions,
//	                          hit counts, drift-check readiness, store size
//	GET  /tracez           -> tail-sampled distributed traces (errored and
//	                          slowest pinned); ?id=<traceId> for one span tree
//	GET  /healthz          -> liveness
//	GET  /readyz           -> readiness (503 until the -rules snapshot loads)
//	GET  /metricsz         -> Prometheus-style exposition: counters, gauges,
//	                          per-phase latency histograms with p50/p95/p99
//	GET  /debug/pprof/*    -> the Go runtime profiles
//
// The service is hardened for production traffic: panics become 500s (and
// are counted and stack-logged), load past -max-inflight is shed with 429 +
// Retry-After, every request runs under -request-timeout, and
// SIGTERM/SIGINT trigger a graceful shutdown that drains in-flight
// extractions for up to -shutdown-grace. All logging is structured JSON on
// stderr (one object per line), filtered by -log-level; each request emits
// one access-log line carrying its decision summary.
//
// Extraction requests are distributed-traced: -trace-sample sets the
// fraction recorded (default 1.0; ?trace=1 always traces, and a cluster
// coordinator's X-Omini-Trace header decision always wins), and the last
// -tracez-capacity traces — errored and slowest pinned — are inspectable
// on GET /tracez. Trace IDs appear in access-log lines, error bodies,
// histogram exemplars and the X-Omini-Trace response header.
//
// Learned rules live in the wrapper farm: the first request for a host
// runs discovery (concurrent first requests coalesce into one), later
// requests replay the learned rule, and a background revalidator
// drift-checks sampled fast-path pages every -relearn-interval so a
// site redesign evicts and relearns its rule. With -rule-store the
// farm persists across restarts (versioned JSON, atomic writes, saved
// on change and at shutdown); a store file also loads via -rules.
//
// Cluster mode (-cluster) puts a consistent-hash router in front of the
// local server: sites are sharded across the -peers nodes (keeping each
// node's rule cache hot for its shard), membership is tracked by health
// probes with ejection and re-admission, failed hops fail over along
// the ring, and with every peer down the node degrades to local
// extraction. -node-id names this node among the peers; GET /clusterz
// reports ring membership and per-node latency:
//
//	ominiserve -addr :8800 -cluster -node-id a \
//	    -peers 'a=http://10.0.0.1:8800,b=http://10.0.0.2:8800,c=http://10.0.0.3:8800'
//
// Clustered nodes also replicate learned rules so failover is warm: on
// start (and re-admission) a node pulls its peers' rules before /readyz
// flips (-sync-on-join; bounded, degrades to learn-on-miss), and a
// background anti-entropy loop (-antientropy-interval) reconciles
// divergent rule versions cluster-wide — highest version wins, and
// drift evictions propagate as tombstones so a stale peer cannot
// resurrect a dead rule. GET /rulesz?view=digest and ?view=sync are the
// replication wire surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"omini/internal/cluster"
	"omini/internal/core"
	"omini/internal/obs"
	"omini/internal/ruledist"
	"omini/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8800", "listen address")
		maxBytes = flag.Int64("max-bytes", 8<<20, "maximum request body size")
		inflight = flag.Int("max-inflight", 256, "concurrent extraction cap; excess requests get 429 (negative = unlimited)")
		reqTO    = flag.Duration("request-timeout", 30*time.Second, "per-request deadline on the pipeline context and the body read; 503 when the pipeline or read runs past it (negative = none)")
		grace    = flag.Duration("shutdown-grace", 15*time.Second, "drain window for in-flight requests on SIGTERM")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		timeout  = flag.Duration("timeout", 0, "per-page extraction deadline enforced by the resource governor (0 = default 10s, negative = unlimited)")

		rulesFile  = flag.String("rules", "", "rules snapshot to load at boot; /readyz stays 503 until it loads")
		ruleStore  = flag.String("rule-store", "", "persist learned rules here (versioned JSON, atomic writes); loaded on boot, saved on change and on shutdown")
		relearnIvl = flag.Duration("relearn-interval", time.Minute, "background drift-revalidation sweep period (negative = disabled)")
		clustered  = flag.Bool("cluster", false, "enable cluster mode: consistent-hash route sites across -peers")
		peers      = flag.String("peers", "", "cluster members as id=url pairs, comma-separated (e.g. 'a=http://h1:8800,b=http://h2:8800')")
		nodeID     = flag.String("node-id", "", "this node's id among -peers (empty = pure coordinator)")
		probeIvl   = flag.Duration("probe-interval", time.Second, "cluster health-check period")
		syncJoin   = flag.Bool("sync-on-join", true, "pull learned rules from peers before flipping /readyz (cluster mode)")
		aeIvl      = flag.Duration("antientropy-interval", 30*time.Second, "background rule anti-entropy sync period (negative = disabled)")

		traceSample = flag.Float64("trace-sample", 1.0, "fraction of extraction requests distributed-traced (0 = none; ?trace=1 always traces)")
		tracezCap   = flag.Int("tracez-capacity", obs.DefaultTraceCapacity, "traces kept for GET /tracez (errored and slowest pinned)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	obs.SetDefaultLogger(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The resource governor mirrors the HTTP body cap so a page admitted
	// by the server is also admitted by the extractor, and adds the
	// per-page deadline on top of the per-request one.
	limits := core.Limits{MaxInputBytes: int(*maxBytes), Deadline: *timeout}
	// The flag speaks operator language (0 = off); the Config zero value
	// means "default", so an explicit zero maps to the negative sentinel.
	sampleRate := *traceSample
	if sampleRate <= 0 {
		sampleRate = -1
	}
	// Peers parse before serve.New: whether /readyz defers on a join
	// sync depends on there being someone to sync from.
	var peerMap map[string]string
	if *clustered {
		var err error
		peerMap, err = parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ominiserve:", err)
			os.Exit(1)
		}
	}
	otherPeers := len(peerMap)
	if _, ok := peerMap[*nodeID]; ok {
		otherPeers--
	}
	deferReady := *clustered && *syncJoin && otherPeers > 0
	srv := serve.New(serve.Config{
		MaxBodyBytes:    *maxBytes,
		MaxInFlight:     *inflight,
		RequestTimeout:  *reqTO,
		Limits:          limits,
		Logger:          logger,
		RulesFile:       *rulesFile,
		RuleStorePath:   *ruleStore,
		RelearnInterval: *relearnIvl,
		TraceSampleRate: sampleRate,
		TraceCapacity:   *tracezCap,
		DeferReady:      deferReady,
	})
	// The farm's background loop: drift-sample revalidation plus
	// periodic rule-store flushes. It stops with the signal context;
	// the post-drain Close below writes the final snapshot.
	go func() { _ = srv.Run(ctx) }()

	var handler http.Handler = srv
	if *clustered {
		// The rule-replication layer: a join-time warm-up pull before
		// /readyz flips, a low-rate background anti-entropy loop, and an
		// immediate round whenever the prober re-admits a peer (its rules
		// may have moved while it was out).
		var repl *ruledist.Replicator
		if otherPeers > 0 {
			var err error
			repl, err = ruledist.New(ruledist.Config{
				Self:     *nodeID,
				Peers:    peerMap,
				Farm:     srv.Farm(),
				Interval: *aeIvl,
				Logger:   logger,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "ominiserve:", err)
				os.Exit(1)
			}
			go func() { _ = repl.Run(ctx) }()
		}
		coord := cluster.New(cluster.Config{
			Self:          *nodeID,
			Peers:         peerMap,
			Local:         srv,
			ProbeInterval: *probeIvl,
			MaxBodyBytes:  *maxBytes,
			Logger:        logger,
			// One sink per node: the coordinator's route/hop half and the
			// server's handler half of a self-served trace merge on /tracez.
			Traces:          srv.Traces(),
			TraceSampleRate: sampleRate,
			OnReadmission: func(string) {
				if repl != nil {
					repl.Kick()
				}
			},
		})
		go func() { _ = coord.Run(ctx) }()
		if deferReady {
			// Warm up before taking shard traffic: pull previously-learned
			// rules from ring peers, then flip /readyz whatever happened —
			// a failed or budget-expired sync degrades to learn-on-miss.
			go func() {
				_ = repl.SyncOnJoin(ctx)
				srv.MarkReady()
			}()
		}
		handler = coord
		logger.Info("cluster mode", "self", *nodeID, "peers", len(peerMap),
			"sync_on_join", deferReady)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ominiserve:", err)
		os.Exit(1)
	}
	// The "addr" field is load-bearing: with -addr :0, scripts (see
	// scripts/ci.sh) parse it to find the chosen port.
	logger.Info("ominiserve listening", "addr", ln.Addr().String())
	if err := serveUntilDone(ctx, ln, handler, logger, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "ominiserve:", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ominiserve: rule store save:", err)
		os.Exit(1)
	}
}

// parsePeers parses the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, rawurl, ok := strings.Cut(pair, "=")
		id, rawurl = strings.TrimSpace(id), strings.TrimSpace(rawurl)
		if !ok || id == "" || rawurl == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want id=url", pair)
		}
		u, err := url.Parse(rawurl)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("bad -peers url %q: want http://host:port", rawurl)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -peers id %q", id)
		}
		peers[id] = strings.TrimRight(rawurl, "/")
	}
	return peers, nil
}

// serveUntilDone serves on ln until ctx is cancelled (SIGTERM/SIGINT),
// then shuts down gracefully: the listener closes immediately while
// in-flight requests get up to grace to finish draining.
func serveUntilDone(ctx context.Context, ln net.Listener, handler http.Handler, logger *obs.Logger, grace time.Duration) error {
	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	logger.Info("shutdown requested", "grace", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := server.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("drained, exiting")
	return nil
}
