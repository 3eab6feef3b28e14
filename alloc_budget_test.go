// The race detector's sync.Pool drops pooled items at random, so pooled
// paths allocate more under -race: the budgets hold for normal builds.

//go:build !race

package omini_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"omini/internal/cluster"
	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/farm"
	"omini/internal/htmlparse"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/ruledist"
	"omini/internal/rules"
	"omini/internal/separator"
	"omini/internal/serve"
	"omini/internal/tagtree"
	"omini/internal/tidy"
	"omini/internal/wrapgen"
)

// allocBudgets are the committed allocation ceilings, allocs per call:
// each is the count measured when it was set. A ceiling may move down
// freely; raising one needs a CHANGES.md line giving the reason. The
// serve entries count the server and the request and recorder a test
// builds, but not net/http's answer to a deadline on a writer that
// cannot take one (see deadlineRecorder), which a server connection
// never gives.
var allocBudgets = map[string]float64{
	"tokenize/small":          5,
	"tokenize/medium":         4,
	"tokenize/large":          3,
	"tidy/small":              6,
	"tidy/medium":             7,
	"tidy/large":              7,
	"build/small":             3,
	"build/medium":            3,
	"build/large":             3,
	"discovery/small":         24,
	"discovery/medium":        21,
	"discovery/large":         21,
	"combine/large":           9,
	"replay/small":            11,
	"replay/medium":           8,
	"replay/large":            8,
	"discovery-public/small":  30,
	"discovery-public/medium": 26,
	"discovery-public/large":  25,
	"replay-public/small":     17,
	"replay-public/medium":    13,
	"replay-public/large":     12,
	"serve hot sample=0":      44,
	"serve hot sample=1":      52,
	"serve longtail":          74,
	"serve records hot":       71,
	"cluster hop":             190,
	"ruledist sync":           833,
	"signature/large":         6,
	"drift/large":             6,
}

// byteBudgets are the committed ceilings on bytes allocated per call
// for the entries whose bytes are gated, counted as their allocations
// are (allocsPaused). Each is what was measured when it was set plus
// 64 bytes, since a stray runtime allocation during the count moves
// the average by a byte or two. Like an allocation ceiling, a byte
// ceiling may move down freely and rises only with a CHANGES.md line
// giving the reason.
var byteBudgets = map[string]float64{
	"build/large":        291648,
	"replay/large":       13696,
	"serve hot sample=0": 9792,
	"serve longtail":     21696,
}

// byteSlack is how far under its byte ceiling an entry may measure
// before the test asks for the ceiling to come down.
const byteSlack = 0.02

// allocRuns is how many calls TestAllocBudgets averages over.
const allocRuns = 50

// TestAllocBudgets fails when an entry point allocates more per call
// than its committed ceiling: Phase 1's three entry points on the
// small, medium and large bench pages, core's discovery and rule
// replay on the same pages both on a pooled page released after each
// call, as the server runs them, and through the public entry points
// (ExtractContext, ExtractWithRuleContext), Phase 2 alone (the tag
// index, the five separator heuristics and their combination) on the
// large page, one hot /extract through the whole serving layer,
// untraced and traced, one /extract that learns an unseen site, one
// hot /records, one hot /extract through a cluster hop, one ruledist
// sync round, and the drift signature and drift score of the large
// bench page; and when an entry with a byte ceiling allocates more
// bytes per call than it. Each count is taken with the collector
// paused (allocsPaused), so it repeats from run to run at any GC pace
// and the gate has no noise to allow for.
func TestAllocBudgets(t *testing.T) {
	measured := map[string]func(){}
	ex := core.New(core.Options{})
	ctx := context.Background()
	for _, size := range corpus.BenchSizes {
		html := corpus.BenchPage(size).HTML
		raw, err := htmlparse.Tokenize(nil, html, nil)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := tidy.NormalizeTokens(nil, raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		learned, err := ex.ExtractContext(ctx, html)
		if err != nil {
			t.Fatalf("%s bench page: %v", size, err)
		}
		rule := learned.Rule("bench.example")
		measured["tokenize/"+size] = func() { _, _ = htmlparse.Tokenize(nil, html, nil) }
		measured["tidy/"+size] = func() { _, _ = tidy.NormalizeTokens(nil, raw, nil) }
		measured["build/"+size] = func() { _, _ = tagtree.Build(norm, nil) }
		measured["discovery/"+size] = onPage(html, func(p *core.Page) { _, _ = ex.ExtractPage(ctx, p) })
		measured["replay/"+size] = onPage(html, func(p *core.Page) { _, _ = ex.ExtractPageWithRule(ctx, p, rule) })
		measured["discovery-public/"+size] = func() { _, _ = ex.ExtractContext(ctx, html) }
		measured["replay-public/"+size] = func() { _, _ = ex.ExtractWithRuleContext(ctx, html, rule) }
		if size == "large" {
			sub := tagtree.FindPath(learned.Tree, learned.SubtreePath)
			hs, probs := separator.All(), combine.PaperProbs()
			measured["combine/large"] = func() { _, _, _ = combine.Combine(sub, hs, probs, nil) }
			sig := tagtree.PathSignature(learned.Tree)
			measured["signature/large"] = func() { _ = tagtree.PathSignature(learned.Tree) }
			measured["drift/large"] = func() { _ = wrapgen.DriftScore(sig, learned.Tree) }
		}
	}
	for name, rate := range map[string]float64{"serve hot sample=0": -1, "serve hot sample=1": 1} {
		measured[name] = hotRequest(t, "/extract", rate)
	}
	measured["serve records hot"] = hotRequest(t, "/records", 0)
	measured["serve longtail"] = longtailRequest(t)
	measured["cluster hop"] = hopRequest(t)
	measured["ruledist sync"] = syncRound(t)

	names := make([]string, 0, len(allocBudgets))
	for name := range allocBudgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling, f := allocBudgets[name], measured[name]
		if f == nil {
			t.Errorf("%s: budget for nothing measured", name)
			continue
		}
		got, bytes := allocsPaused(f)
		switch {
		case got > ceiling:
			t.Errorf("%s: %v allocs per call, over its ceiling of %v", name, got, ceiling)
		case got < ceiling:
			t.Logf("%s: %v allocs per call, under its ceiling of %v: lower the ceiling", name, got, ceiling)
		}
		if ceiling, ok := byteBudgets[name]; ok && bytes > ceiling {
			t.Errorf("%s: %v bytes per call, over its ceiling of %v", name, bytes, ceiling)
		} else if ok && bytes < ceiling*(1-byteSlack) {
			t.Logf("%s: %v bytes per call, %.0f%% under its ceiling of %v: lower the ceiling",
				name, bytes, 100*(1-bytes/ceiling), ceiling)
		}
	}
	for name := range measured {
		if _, ok := allocBudgets[name]; !ok {
			t.Errorf("%s: measured without a budget", name)
		}
	}
	for name := range byteBudgets {
		if _, ok := allocBudgets[name]; !ok {
			t.Errorf("%s: byte budget without an allocation budget", name)
		}
	}
}

// allocsPaused is testing.AllocsPerRun over allocRuns calls with the
// collector paused, returning the bytes allocated per call too. A
// collection during the count empties the sync.Pools (the pooled
// pages, the answer buffer), and the pooled calls then allocate again,
// so an unpaused count depends on the GC pace (GOGC) and on when the
// last collection ran. As AllocsPerRun does, it runs on one P, calls f
// once before counting, and truncates both averages to integers.
func allocsPaused(f func()) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / allocRuns),
		float64((after.TotalAlloc - before.TotalAlloc) / allocRuns)
}

// onPage returns a function that runs extract on a pooled page holding
// html and releases the page, as the server runs each request.
func onPage(html string, extract func(*core.Page)) func() {
	return func() {
		p := core.GetPage()
		p.SetBody(append(p.Buffer(), html...))
		extract(p)
		p.Release()
	}
}

// hotRequest returns a function serving one hot request to path
// (/extract or /records), as BenchmarkServeExtractHot and
// BenchmarkServeRecordsHot do, on a server that has learned every
// corpus site and traces the given share of requests
// (Config.TraceSampleRate; 0 is the default, every request).
func hotRequest(t *testing.T, path string, rate float64) func() {
	t.Helper()
	srv := serve.New(serve.Config{
		Stats:           resilience.NewStats(),
		Logger:          obs.NewLogger(io.Discard, obs.LevelInfo),
		TraceSampleRate: rate,
	})
	post := func(target, html string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
		return rec.Code
	}
	var target, html string
	for _, spec := range corpus.AllSpecs() {
		tgt := path + "?site=" + url.QueryEscape(spec.Name)
		post(tgt, spec.Page(0).HTML)
		if page := spec.Page(1).HTML; html == "" && post(tgt, page) == http.StatusOK {
			target, html = tgt, page
		}
	}
	if html == "" {
		t.Fatal("no corpus page replays a learned rule")
	}
	return func() {
		if code := post(target, html); code != http.StatusOK {
			t.Fatalf("%s: status %d", target, code)
		}
	}
}

// longtailRequest returns a function serving one /extract request, as
// BenchmarkServeExtractLongtail does, for a site the server has never
// seen: each call misses the farm, runs full discovery and learns a
// rule. The site names are minted up front, so building them is not
// counted.
func longtailRequest(t *testing.T) func() {
	t.Helper()
	srv := serve.New(serve.Config{
		Stats:  resilience.NewStats(),
		Logger: obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	html := corpus.AllSpecs()[0].Page(0).HTML
	// testing.AllocsPerRun calls the function once more than it counts.
	targets := make([]string, allocRuns+1)
	for i := range targets {
		targets[i] = fmt.Sprintf("/extract?site=tail-%d.example", i)
	}
	next := 0
	return func() {
		if next == len(targets) {
			t.Fatal("longtail request: out of unseen sites")
		}
		target := targets[next]
		next++
		rec := httptest.NewRecorder()
		srv.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rec.Code)
		}
	}
}

// hopRequest returns a function routing one hot /extract request, as
// BenchmarkClusterHop does, through a pure coordinator that proxies it
// over loopback to the one peer owning every site, which has learned
// every corpus site. The count covers both ends of the hop.
func hopRequest(t *testing.T) func() {
	t.Helper()
	quiet := obs.NewLogger(io.Discard, obs.LevelInfo)
	peer := httptest.NewServer(serve.New(serve.Config{Stats: resilience.NewStats(), Logger: quiet}))
	t.Cleanup(peer.Close)
	stats := resilience.NewStats()
	c := cluster.New(cluster.Config{
		Peers:  map[string]string{"n0": peer.URL},
		Local:  serve.New(serve.Config{Stats: stats, Logger: quiet}),
		Stats:  stats,
		Logger: quiet,
	})
	post := func(target, html string) int {
		rec := httptest.NewRecorder()
		c.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
		return rec.Code
	}
	var target, html string
	for _, spec := range corpus.AllSpecs() {
		tgt := "/extract?site=" + url.QueryEscape(spec.Name)
		post(tgt, spec.Page(0).HTML)
		if page := spec.Page(1).HTML; html == "" && post(tgt, page) == http.StatusOK {
			target, html = tgt, page
		}
	}
	if html == "" {
		t.Fatal("no corpus page replays a learned rule through the hop")
	}
	return func() {
		if code := post(target, html); code != http.StatusOK {
			t.Fatalf("%s: status %d", target, code)
		}
	}
}

// syncRound returns a function running one anti-entropy round, as
// BenchmarkRuledistSync does: a peer node relearns its 16 rules (a
// version bump each), then a replicator with its own farm polls the
// peer's digest over loopback, pulls the 16 newer rules in one
// snapshot and merges them. Unlike the benchmark, the count includes
// the peer's relearns, and both ends of the transfer.
func syncRound(t *testing.T) func() {
	t.Helper()
	quiet := obs.NewLogger(io.Discard, obs.LevelError)
	peer := serve.New(serve.Config{Stats: resilience.NewStats(), Logger: quiet})
	ts := httptest.NewServer(peer)
	t.Cleanup(ts.Close)
	local, err := farm.New(farm.Config{Stats: resilience.NewStats(), Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ruledist.New(ruledist.Config{
		Self:     "self",
		Peers:    map[string]string{"peer": ts.URL},
		Farm:     local,
		Interval: -1,
		Stats:    resilience.NewStats(),
		Logger:   quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]string, 16)
	for i := range sites {
		sites[i] = fmt.Sprintf("sync-%02d.example", i)
	}
	sig := tagtree.Signature{"html": 1, "html.body": 1, "html.body.ul": 1, "html.body.ul.li": 12}
	ctx := context.Background()
	return func() {
		for _, site := range sites {
			peer.Farm().Put(rules.Rule{Site: site, SubtreePath: "html[1].body[1].ul[1]", Separator: "li"}, sig)
		}
		if err := r.SyncAll(ctx); err != nil {
			t.Fatal(err)
		}
		want, _ := peer.Farm().Get(sites[0])
		if got, _ := local.Get(sites[0]); got.Version != want.Version {
			t.Fatalf("sync round left version %d, peer has %d", got.Version, want.Version)
		}
	}
}

// deadlineRecorder is a ResponseRecorder that takes read and write
// deadlines, as a server connection's writer does. On a writer without
// them, http.ResponseController answers each deadline with a freshly
// wrapped http.ErrNotSupported: allocations the server makes only
// under a recorder, so the serve entries leave them out.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error  { return nil }
func (deadlineRecorder) SetWriteDeadline(time.Time) error { return nil }
