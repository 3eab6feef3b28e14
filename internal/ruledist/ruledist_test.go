package ruledist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/rules"
	"omini/internal/serve"
	"omini/internal/tagtree"
)

func quietLogger() *obs.Logger {
	return obs.NewLogger(io.Discard, obs.LevelError)
}

func unlimitedGuard() *govern.Guard {
	return govern.NewGuard(context.Background(), govern.Unlimited())
}

// peerNode is a real serve.Server (the actual /rulesz wire surface)
// plus its farm and registry, stood up behind httptest.
type peerNode struct {
	srv   *serve.Server
	ts    *httptest.Server
	stats *resilience.Stats
}

func newPeerNode(t *testing.T) *peerNode {
	t.Helper()
	stats := resilience.NewStats()
	srv := serve.New(serve.Config{Stats: stats, Logger: quietLogger()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &peerNode{srv: srv, ts: ts, stats: stats}
}

func (p *peerNode) seed(site string, version int) {
	p.srv.Farm().Put(rules.Rule{
		Site:        site,
		SubtreePath: "html[1].body[1].ul[1]",
		Separator:   "li",
		LearnedAt:   time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC),
		Version:     version,
	}, tagtree.Signature{"html": 1, "html.body": 1})
}

// newLocal builds the pulling side: a bare farm plus a replicator
// aimed at the given peers.
func newLocal(t *testing.T, peers map[string]string, tune func(*Config)) (*farm.Farm, *Replicator, *resilience.Stats) {
	t.Helper()
	stats := resilience.NewStats()
	f, err := farm.New(farm.Config{Stats: stats, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Self:     "self",
		Peers:    peers,
		Farm:     f,
		Interval: -1, // rounds are driven by the test
		Stats:    stats,
		Logger:   quietLogger(),
	}
	if tune != nil {
		tune(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, r, stats
}

func TestNewRequiresFarm(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil farm")
	}
}

// TestSyncStampsTraceHeader: when the replicator runs under a traced
// context, every digest and pull request carries a well-formed
// X-Omini-Trace header, so the peer's /rulesz handler spans parent to
// the sync round instead of starting orphan traces.
func TestSyncStampsTraceHeader(t *testing.T) {
	peer := newPeerNode(t)
	peer.seed("a.example", 1)

	var mu sync.Mutex
	headers := make(map[string][]string) // view -> trace headers seen
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		view := r.URL.Query().Get("view")
		headers[view] = append(headers[view], r.Header.Get(obs.TraceHeader))
		mu.Unlock()
		peer.srv.ServeHTTP(w, r)
	}))
	defer wrapped.Close()

	f, r, _ := newLocal(t, map[string]string{"peer": wrapped.URL}, nil)
	ctx, _ := obs.WithTraceRecorder(context.Background(), false)
	if err := r.SyncAll(ctx); err != nil {
		t.Fatalf("SyncAll: %v", err)
	}
	if f.Len() != 1 {
		t.Fatalf("local farm has %d rules after sync, want 1", f.Len())
	}
	mu.Lock()
	for _, view := range []string{"digest", "sync"} {
		if len(headers[view]) == 0 {
			t.Fatalf("no %s request reached the peer", view)
		}
		for _, h := range headers[view] {
			if h == "" {
				t.Fatalf("%s request carried no %s header", view, obs.TraceHeader)
			}
			if sc, err := obs.ParseTraceHeader(h); err != nil || !sc.Valid() {
				t.Fatalf("%s request header %q does not parse as a span context: %v", view, h, err)
			}
		}
	}
	// Untraced contexts propagate nothing: no fabricated trace roots.
	headers = make(map[string][]string)
	mu.Unlock()

	peer.seed("b.example", 1)
	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("untraced SyncAll: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for view, hs := range headers {
		for _, h := range hs {
			if h != "" {
				t.Fatalf("untraced %s request carried %s header %q, want none", view, obs.TraceHeader, h)
			}
		}
	}
}

// TestSyncPullsMissingRules: one round against a peer holding rules
// the local farm lacks pulls them all — without a single learn — and
// the next round against unchanged state is a 304.
func TestSyncPullsMissingRules(t *testing.T) {
	peer := newPeerNode(t)
	for _, site := range []string{"a.example", "b.example", "c.example"} {
		peer.seed(site, 2)
	}
	f, r, stats := newLocal(t, map[string]string{"peer": peer.ts.URL}, nil)

	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("SyncAll: %v", err)
	}
	if f.Len() != 3 {
		t.Fatalf("local farm has %d rules after sync, want 3", f.Len())
	}
	if got, ok := f.Get("b.example"); !ok || got.Version != 2 {
		t.Fatalf("pulled rule = %+v ok=%v, want v2", got, ok)
	}
	if got := stats.Get(farm.SeriesLearns); got != 0 {
		t.Fatalf("farm.learns = %d after replication, want 0", got)
	}
	if got := stats.Get(SeriesRulesPulled); got != 3 {
		t.Fatalf("ruledist.rules_pulled = %d, want 3", got)
	}

	// Converged: the second round answers from the etag.
	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("second SyncAll: %v", err)
	}
	if got := stats.Get(SeriesNotModified); got != 1 {
		t.Fatalf("ruledist.not_modified = %d, want 1", got)
	}
	if got := stats.Get(SeriesRulesPulled); got != 3 {
		t.Fatalf("converged round pulled more rules: %d", got)
	}

	// A peer-side change invalidates the etag and flows through.
	peer.seed("d.example", 1)
	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("third SyncAll: %v", err)
	}
	if f.Len() != 4 {
		t.Fatalf("local farm has %d rules after peer change, want 4", f.Len())
	}
}

// TestSyncIgnoresStaleVersions: the version conflict rule on the pull
// side — a peer behind the local farm contributes nothing.
func TestSyncIgnoresStaleVersions(t *testing.T) {
	peer := newPeerNode(t)
	peer.seed("shared.example", 3)
	f, r, _ := newLocal(t, map[string]string{"peer": peer.ts.URL}, nil)
	f.Put(rules.Rule{
		Site:        "shared.example",
		SubtreePath: "html[1].body[2].table[1]",
		Separator:   "tr",
		Version:     5,
	}, tagtree.Signature{"html": 1})

	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("SyncAll: %v", err)
	}
	got, _ := f.Get("shared.example")
	if got.Version != 5 || got.Separator != "tr" {
		t.Fatalf("local rule clobbered by stale peer: %+v", got)
	}
}

// TestTombstonePropagation: a peer's eviction kills the local copy and
// keeps a stale third party from resurrecting it.
func TestTombstonePropagation(t *testing.T) {
	peer := newPeerNode(t)
	peer.seed("dead.example", 4)
	peer.srv.Farm().Invalidate("dead.example")

	f, r, stats := newLocal(t, map[string]string{"peer": peer.ts.URL}, nil)
	// Local still holds the rule at the evicted version.
	f.Put(rules.Rule{
		Site:        "dead.example",
		SubtreePath: "html[1].body[1].ul[1]",
		Separator:   "li",
		Version:     4,
	}, tagtree.Signature{"html": 1})

	if err := r.SyncAll(context.Background()); err != nil {
		t.Fatalf("SyncAll: %v", err)
	}
	if _, ok := f.Get("dead.example"); ok {
		t.Fatal("local rule survived a propagated tombstone")
	}
	if got := stats.Get(SeriesTombstonesApplied); got != 1 {
		t.Fatalf("ruledist.tombstones_applied = %d, want 1", got)
	}
	// The tombstone is now local state: a stale peer cannot undo it.
	if f.ApplyRemote(farm.StoredRule{Rule: rules.Rule{
		Site: "dead.example", SubtreePath: "html[1]", Separator: "li", Version: 4,
	}}) {
		t.Fatal("stale rule resurrected after tombstone propagation")
	}
}

// TestCorruptTransferDiscarded: a peer that advertises rules but ships
// a body the snapshot codec rejects — truncated, from a newer format,
// or naming one site twice — gets its transfer discarded whole: the
// farm stays untouched and the corruption is counted.
func TestCorruptTransferDiscarded(t *testing.T) {
	lie := `{"site":"lie.example","subtreePath":"html[1]","separator":"li","version":3}`
	for _, tc := range []struct{ name, body string }{
		// A truncated snapshot: valid prefix, missing tail.
		{"truncated", `{"version":2,"rules":[{"site":"lie.example","subtr`},
		{"too new", `{"version":99,"rules":[` + lie + `]}`},
		{"duplicate site", `{"version":2,"rules":[` + lie + `,` + lie + `]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /rulesz", func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Query().Get("view") == "digest" {
					w.Header().Set("Content-Type", "application/json")
					_, _ = w.Write([]byte(`{"etag":"feedface00000000","rules":{"lie.example":3},"tombstones":{}}`))
					return
				}
				_, _ = w.Write([]byte(tc.body))
			})
			liar := httptest.NewServer(mux)
			defer liar.Close()

			f, r, stats := newLocal(t, map[string]string{"liar": liar.URL}, func(c *Config) {
				c.PullAttempts = 1
			})
			if err := r.SyncAll(context.Background()); err == nil {
				t.Fatal("SyncAll accepted a corrupt transfer")
			}
			if f.Len() != 0 {
				t.Fatalf("corrupt transfer leaked %d rules into the farm", f.Len())
			}
			if got := stats.Get(SeriesCorruptDiscarded); got == 0 {
				t.Fatal("ruledist.corrupt_discarded = 0")
			}
			if got := stats.Get(SeriesPeerErrors); got != 1 {
				t.Fatalf("ruledist.peer_errors = %d, want 1", got)
			}
			// The etag was not cached: the next round retries the diff
			// rather than treating the failed pull as converged.
			if r.lastEtag("liar") != "" {
				t.Fatal("etag cached for a peer whose pull failed")
			}
		})
	}
}

// TestBreakerSkipsDeadPeer: after the failure threshold a dead peer
// costs one breaker check per round instead of a connection timeout,
// and the live peer still syncs.
func TestBreakerSkipsDeadPeer(t *testing.T) {
	live := newPeerNode(t)
	live.seed("ok.example", 1)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on

	f, r, stats := newLocal(t, map[string]string{"live": live.ts.URL, "dead": dead.URL},
		func(c *Config) {
			c.PullAttempts = 1
			c.Breaker = resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}
		})

	// Round 1 charges the dead peer's breaker; round 2 skips it.
	_ = r.SyncAll(context.Background())
	_ = r.SyncAll(context.Background())
	if got := stats.Get(SeriesBreakerSkips); got == 0 {
		t.Fatal("ruledist.skipped_breaker = 0; dead peer probed every round")
	}
	if f.Len() != 1 {
		t.Fatalf("live peer not synced around the dead one: %d rules", f.Len())
	}
	if got := stats.Get(SeriesRounds); got != 2 {
		t.Fatalf("ruledist.rounds = %d, want 2", got)
	}
}

// TestKickTriggersRound: Run serves a Kick (the readmission hook) with
// an immediate round even with the interval ticker disabled.
func TestKickTriggersRound(t *testing.T) {
	peer := newPeerNode(t)
	peer.seed("kicked.example", 1)
	f, r, _ := newLocal(t, map[string]string{"peer": peer.ts.URL}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = r.Run(ctx) }()

	r.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for f.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if f.Len() != 1 {
		t.Fatal("Kick did not trigger a sync round")
	}
	cancel()
	<-done
}

// TestSyncOnJoinBudget: a join sync against an unreachable peer ends
// inside the budget with an advisory error — the caller flips ready
// and the node degrades to learn-on-miss instead of blocking.
func TestSyncOnJoinBudget(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answers
	}))
	defer hung.Close()

	_, r, stats := newLocal(t, map[string]string{"hung": hung.URL}, func(c *Config) {
		c.JoinBudget = 150 * time.Millisecond
		c.PullTimeout = time.Hour // the join budget, not the attempt timeout, must cut this
		c.PullAttempts = 1
	})
	start := time.Now()
	if err := r.SyncOnJoin(context.Background()); err == nil {
		t.Fatal("SyncOnJoin reported success against a hung peer")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("SyncOnJoin ran %v past its 150ms budget", took)
	}
	if got := stats.Get(SeriesJoinSyncs); got != 1 {
		t.Fatalf("ruledist.join_syncs = %d, want 1", got)
	}
}

// TestPeerOrderRingDistance: peers sort by clockwise ring distance
// from self, deterministically, and self is excluded.
func TestPeerOrderRingDistance(t *testing.T) {
	peers := map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c", "self": "http://self",
	}
	_, r, _ := newLocal(t, peers, nil)
	order := r.peerOrder(unlimitedGuard())
	if len(order) != 3 {
		t.Fatalf("peerOrder = %d peers, want 3 (self excluded)", len(order))
	}
	selfH := ringHash64("self")
	for i := 1; i < len(order); i++ {
		prev, cur := ringHash64(order[i-1].id)-selfH, ringHash64(order[i].id)-selfH
		if prev > cur {
			t.Fatalf("peerOrder not sorted by ring distance: %+v", order)
		}
	}
	again := r.peerOrder(unlimitedGuard())
	for i := range order {
		if order[i].id != again[i].id {
			t.Fatalf("peerOrder unstable: %+v vs %+v", order, again)
		}
	}
}
