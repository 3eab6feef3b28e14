package farm

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/rules"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// unlimitedGuard returns an ungoverned guard for driving internal
// loops from tests.
func unlimitedGuard() *govern.Guard {
	return govern.NewGuard(context.Background(), govern.Unlimited())
}

// waitFor polls cond until it holds or the test deadline budget runs
// out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// testSpec returns a deterministic synthetic site using the named
// layout family.
func testSpec(name, layout string) sitegen.SiteSpec {
	return sitegen.SiteSpec{
		Name:       name,
		Domain:     sitegen.DomainBooks,
		LayoutName: layout,
		Chrome:     sitegen.ChromeSpec{Banner: true, NavLinks: 4},
		MinItems:   8,
		MaxItems:   12,
	}
}

// newTestFarm builds a farm on a private registry so counter asserts
// are isolated per test.
func newTestFarm(t *testing.T, cfg Config) (*Farm, *obs.Registry) {
	t.Helper()
	if cfg.Stats == nil {
		cfg.Stats = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard, obs.LevelError)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, cfg.Stats
}

func TestLearnOnMissThenFastPath(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	spec := testSpec("miss.example", "ul-record")
	ctx := context.Background()

	slow, out, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(0).HTML))
	if err != nil {
		t.Fatalf("first Extract: %v", err)
	}
	if !out.Learned || out.FromRule {
		t.Fatalf("first request should learn, got %+v", out)
	}
	if got := stats.Get(SeriesMisses); got != 1 {
		t.Fatalf("farm.misses = %d, want 1", got)
	}
	if got := stats.Get(SeriesLearns); got != 1 {
		t.Fatalf("farm.learns = %d, want 1", got)
	}

	fast, out, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(0).HTML))
	if err != nil {
		t.Fatalf("second Extract: %v", err)
	}
	if !out.FromRule || out.Learned {
		t.Fatalf("second request should replay the rule, got %+v", out)
	}
	if got := stats.Get(SeriesHits); got != 1 {
		t.Fatalf("farm.hits = %d, want 1", got)
	}
	if len(fast.Objects) != len(slow.Objects) {
		t.Fatalf("fast path extracted %d objects, slow path %d",
			len(fast.Objects), len(slow.Objects))
	}
	if r, ok := f.Get(spec.Name); !ok || r.Version != 1 {
		t.Fatalf("cached rule = %+v ok=%v, want version 1", r, ok)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
}

func TestSitelessRequestIsNotCached(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	spec := testSpec("anon.example", "row-table")
	if _, out, err := f.Extract(context.Background(), "", core.NewPage(spec.Page(0).HTML)); err != nil {
		t.Fatalf("Extract: %v", err)
	} else if out != (Outcome{}) {
		t.Fatalf("site-less outcome = %+v, want zero", out)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d, want 0", f.Len())
	}
	if got := stats.Get(SeriesMisses); got != 0 {
		t.Fatalf("farm.misses = %d, want 0 (site-less requests bypass the cache)", got)
	}
}

// TestSingleflightOneDiscovery is the thundering-herd proof: N
// concurrent first requests for one host must trigger exactly one
// full discovery, with everyone else replaying the leader's rule or
// hitting the cache. Run under -race (ci.sh does).
func TestSingleflightOneDiscovery(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	spec := testSpec("herd.example", "div-card")
	const n = 24
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i], errs[i] = f.Extract(context.Background(), spec.Name, core.NewPage(spec.Page(i%4).HTML))
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := stats.Get(SeriesLearns); got != 1 {
		t.Fatalf("farm.learns = %d, want exactly 1 for %d concurrent first requests", got, n)
	}
	learned, served := 0, 0
	for _, out := range outs {
		if out.Learned {
			learned++
		}
		if out.FromRule {
			served++
		}
	}
	if learned != 1 {
		t.Fatalf("%d requests report Learned, want 1", learned)
	}
	if learned+served != n {
		t.Fatalf("learned(%d) + fast(%d) = %d, want %d", learned, served, learned+served, n)
	}
	if got := stats.Get(SeriesHits); got != int64(served) {
		t.Fatalf("farm.hits = %d, want %d", got, served)
	}
}

// TestRedesignMismatchRelearns simulates a site redesign with a
// sitegen layout swap: the cached rule no longer resolves on the new
// layout, so the fast path must evict it and relearn in-line, bumping
// the rule version.
func TestRedesignMismatchRelearns(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	old := testSpec("redesign.example", "ul-record")
	redesigned := testSpec("redesign.example", "div-card")
	ctx := context.Background()

	if _, out, err := f.Extract(ctx, old.Name, core.NewPage(old.Page(0).HTML)); err != nil || !out.Learned {
		t.Fatalf("learn: out=%+v err=%v", out, err)
	}
	res, out, err := f.Extract(ctx, redesigned.Name, core.NewPage(redesigned.Page(0).HTML))
	if err != nil {
		t.Fatalf("post-redesign Extract: %v", err)
	}
	if !out.Relearned || !out.Learned || out.FromRule {
		t.Fatalf("post-redesign outcome = %+v, want Relearned+Learned", out)
	}
	if len(res.Objects) == 0 {
		t.Fatal("post-redesign extraction returned no objects")
	}
	if got := stats.Get(SeriesStale); got != 1 {
		t.Fatalf("farm.stale = %d, want 1", got)
	}
	if got := stats.Get(SeriesRelearn); got != 1 {
		t.Fatalf("farm.relearn = %d, want 1", got)
	}
	if r, ok := f.Get(old.Name); !ok || r.Version != 2 {
		t.Fatalf("relearned rule = %+v ok=%v, want version 2", r, ok)
	}
}

// driftTrainPage is the pre-redesign page: a small sitegen ul-record
// site the rule is learned from.
func driftTrainPage(site string) string {
	return testSpec(site, "ul-record").Page(0).HTML
}

// driftedPage mutates the site's layout via sitegen without breaking
// rule replay: the original container stays in place (so the cached
// rule still resolves and extraction silently keeps working) while a
// large region rendered by a structurally different sitegen layout
// family is grafted after it — the additive redesign only the drift
// sampler can see.
func driftedPage(t *testing.T, site string) string {
	t.Helper()
	page := driftTrainPage(site)
	donor := sitegen.SiteSpec{
		Name:       site,
		Domain:     sitegen.DomainProducts,
		LayoutName: "div-card",
		Chrome:     sitegen.ChromeSpec{SidebarLinks: 8, FooterLinks: 8, SearchForm: true},
		Noise:      sitegen.NoiseSpec{VarySizes: true},
		MinItems:   60,
		MaxItems:   60,
	}.Page(1).HTML
	start := strings.Index(donor, "<body>")
	end := strings.Index(donor, "</body>")
	if start < 0 || end < 0 {
		t.Fatal("donor page has no body")
	}
	region := donor[start+len("<body>") : end]
	return strings.Replace(page, "</body>", region+"</body>", 1)
}

// TestDriftSamplerRelearns is the background-revalidation proof: a
// fast-path hit on a drifted page is sampled, the drift check fires
// past the threshold, and the rule is evicted and relearned from the
// sampled page with its version bumped.
func TestDriftSamplerRelearns(t *testing.T) {
	f, stats := newTestFarm(t, Config{SampleEvery: 1})
	ctx := context.Background()
	site := "drift.example"

	if _, out, err := f.Extract(ctx, site, core.NewPage(driftTrainPage(site))); err != nil || !out.Learned {
		t.Fatalf("learn: out=%+v err=%v", out, err)
	}
	// The drifted page must still serve from the rule — drift is
	// invisible to the fast path; only the sampler can see it.
	if _, out, err := f.Extract(ctx, site, core.NewPage(driftedPage(t, site))); err != nil || !out.FromRule {
		t.Fatalf("drifted page should replay: out=%+v err=%v", out, err)
	}
	if n := f.Revalidate(ctx); n != 1 {
		t.Fatalf("Revalidate processed %d samples, want 1", n)
	}
	if got := stats.Get(SeriesDriftChecks); got != 1 {
		t.Fatalf("farm.drift_checks = %d, want 1", got)
	}
	if got := stats.Get(SeriesDriftDetected); got != 1 {
		t.Fatalf("farm.drift_detected = %d, want 1", got)
	}
	if got := stats.Get(SeriesRelearn); got != 1 {
		t.Fatalf("farm.relearn = %d, want 1", got)
	}
	if r, ok := f.Get(site); !ok || r.Version != 2 {
		t.Fatalf("post-drift rule = %+v ok=%v, want version 2", r, ok)
	}
}

// TestDriftSamplerIgnoresStablePages: repeated hits on structurally
// stable pages sample and check but never trip detection, so nothing
// is queued for a relearn.
func TestDriftSamplerIgnoresStablePages(t *testing.T) {
	f, stats := newTestFarm(t, Config{SampleEvery: 1})
	ctx := context.Background()
	spec := testSpec("stable.example", "row-table")
	if _, _, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(0).HTML)); err != nil {
		t.Fatalf("learn: %v", err)
	}
	for i := 1; i < 4; i++ {
		if _, out, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(i).HTML)); err != nil || !out.FromRule {
			t.Fatalf("page %d: out=%+v err=%v", i, out, err)
		}
	}
	if got := stats.Get(SeriesDriftChecks); got != 3 {
		t.Fatalf("farm.drift_checks = %d after 3 sampled hits, want 3", got)
	}
	if n := f.Revalidate(ctx); n != 0 {
		t.Fatalf("Revalidate relearned %d pages, want 0", n)
	}
	if got := stats.Get(SeriesDriftDetected); got != 0 {
		t.Fatalf("farm.drift_detected = %d on structurally stable pages, want 0", got)
	}
	if r, ok := f.Get(spec.Name); !ok || r.Version != 1 {
		t.Fatalf("stable rule = %+v ok=%v, want untouched version 1", r, ok)
	}
}

// TestSweepFlagsEntriesForRevalidation: a sweep forces the next hit of
// every cached rule to sample regardless of the sampling cadence.
func TestSweepFlagsEntriesForRevalidation(t *testing.T) {
	f, stats := newTestFarm(t, Config{SampleEvery: 1 << 30})
	ctx := context.Background()
	spec := testSpec("sweep.example", "dl-record")
	if _, _, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(0).HTML)); err != nil {
		t.Fatalf("learn: %v", err)
	}
	// Without a sweep the huge cadence means no samples.
	if _, _, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(1).HTML)); err != nil {
		t.Fatalf("hit: %v", err)
	}
	if got := stats.Get(SeriesDriftChecks); got != 0 {
		t.Fatalf("unswept hit ran %d drift checks, want 0", got)
	}
	if err := f.sweep(unlimitedGuard()); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if _, _, err := f.Extract(ctx, spec.Name, core.NewPage(spec.Page(2).HTML)); err != nil {
		t.Fatalf("post-sweep hit: %v", err)
	}
	if got := stats.Get(SeriesDriftChecks); got != 1 {
		t.Fatalf("farm.drift_checks = %d after the post-sweep hit, want 1", got)
	}
}

func TestLRUCapacityEviction(t *testing.T) {
	f, stats := newTestFarm(t, Config{Shards: 1, Capacity: 2})
	sig := tagtree.Signature{"html": 1}
	for i := 0; i < 3; i++ {
		f.Put(rules.Rule{
			Site:        fmt.Sprintf("site-%d.example", i),
			SubtreePath: "html[1].body[1]",
			Separator:   "li",
		}, sig)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after capacity eviction", f.Len())
	}
	if got := stats.Get(SeriesEvictions); got != 1 {
		t.Fatalf("farm.evictions = %d, want 1", got)
	}
	if _, ok := f.Get("site-0.example"); ok {
		t.Fatal("least recently used rule survived eviction")
	}
}

func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	spec := testSpec("persist.example", "item-table")
	ctx := context.Background()

	f1, _ := newTestFarm(t, Config{StorePath: path})
	if _, out, err := f1.Extract(ctx, spec.Name, core.NewPage(spec.Page(0).HTML)); err != nil || !out.Learned {
		t.Fatalf("learn: out=%+v err=%v", out, err)
	}
	if err := f1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("store file missing after Close: %v", err)
	}

	f2, stats2 := newTestFarm(t, Config{StorePath: path})
	if f2.Len() != 1 {
		t.Fatalf("restarted farm Len = %d, want 1", f2.Len())
	}
	r, ok := f2.Get(spec.Name)
	if !ok || r.Version != 1 {
		t.Fatalf("restarted rule = %+v ok=%v, want version 1", r, ok)
	}
	if _, out, err := f2.Extract(ctx, spec.Name, core.NewPage(spec.Page(1).HTML)); err != nil || !out.FromRule {
		t.Fatalf("restarted farm should serve from the persisted rule: out=%+v err=%v", out, err)
	}
	if got := stats2.Get(SeriesLearns); got != 0 {
		t.Fatalf("restarted farm ran %d discoveries, want 0", got)
	}
	// The persisted signature must survive the round trip, or drift
	// revalidation would silently disable itself after every restart.
	if stored := f2.Rules(); len(stored) != 1 || len(stored[0].Signature) == 0 {
		t.Fatalf("restarted rules = %+v, want one rule with a signature", stored)
	}
}

func TestNewRejectsCorruptStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StorePath: path, Stats: obs.NewRegistry(),
		Logger: obs.NewLogger(io.Discard, obs.LevelError)}); err == nil {
		t.Fatal("New accepted a corrupt store")
	}
}

func TestRulesFileSeed(t *testing.T) {
	// Legacy rules.Store array files (the ominiserve -rules format)
	// must seed the farm too.
	path := filepath.Join(t.TempDir(), "legacy.json")
	st := rules.NewStore()
	st.Put(rules.Rule{Site: "legacy.example", SubtreePath: "html[1].body[1]", Separator: "li"})
	if err := st.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f, _ := newTestFarm(t, Config{})
	if err := f.SeedFile(path); err != nil {
		t.Fatalf("SeedFile: %v", err)
	}
	r, ok := f.Get("legacy.example")
	if !ok {
		t.Fatal("legacy rule missing after seed")
	}
	if r.Version != 1 {
		t.Fatalf("legacy rule version = %d, want normalized to 1", r.Version)
	}
}

func TestInvalidate(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	f.Put(rules.Rule{Site: "x.example", SubtreePath: "html[1]", Separator: "li"}, nil)
	if !f.Invalidate("x.example") {
		t.Fatal("Invalidate reported no rule")
	}
	if f.Invalidate("x.example") {
		t.Fatal("second Invalidate reported a rule")
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d, want 0", f.Len())
	}
}

func TestPutVersionsExternalRules(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	rule := rules.Rule{Site: "put.example", SubtreePath: "html[1].body[1]", Separator: "li"}
	f.Put(rule, nil)
	if r, _ := f.Get(rule.Site); r.Version != 1 {
		t.Fatalf("first Put version = %d, want 1", r.Version)
	}
	f.Put(rule, nil)
	if r, _ := f.Get(rule.Site); r.Version != 2 {
		t.Fatalf("second Put version = %d, want 2", r.Version)
	}
}

func TestRunDrainsSamplesAndSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	f, stats := newTestFarm(t, Config{SampleEvery: 1, StorePath: path})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	site := "run.example"
	if _, _, err := f.Extract(ctx, site, core.NewPage(driftTrainPage(site))); err != nil {
		t.Fatalf("learn: %v", err)
	}
	if _, _, err := f.Extract(ctx, site, core.NewPage(driftedPage(t, site))); err != nil {
		t.Fatalf("hit: %v", err)
	}
	waitFor(t, func() bool { return stats.Get(SeriesDriftDetected) == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("store not saved on shutdown: %v", err)
	}
}

// TestCloseWaitsForRunFinalSave races the two final saves of a
// shutdown: Run's, on cancellation, and Close's. Whichever wins, the
// store must hold every rule once Close returns — a Close that finds
// the store clean because Run's save is still writing must wait for it.
func TestCloseWaitsForRunFinalSave(t *testing.T) {
	const rounds, sites = 20, 50
	for round := 0; round < rounds; round++ {
		path := filepath.Join(t.TempDir(), "rules.json")
		f, _ := newTestFarm(t, Config{StorePath: path})
		for i := 0; i < sites; i++ {
			f.Put(rules.Rule{Site: fmt.Sprintf("s%02d.example", i), SubtreePath: "html[1].body[1]", Separator: "li"}, nil)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ran := make(chan error, 1)
		go func() { ran <- f.Run(ctx) }()
		closed := make(chan error, 1)
		go func() { closed <- f.Close() }()
		cancel()
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		snap, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("round %d: store after Close: %v", round, err)
		}
		if len(snap.Rules) != sites {
			t.Fatalf("round %d: store holds %d rules after Close, want %d", round, len(snap.Rules), sites)
		}
		if err := <-ran; err != context.Canceled {
			t.Fatalf("round %d: Run returned %v, want context.Canceled", round, err)
		}
	}
}

func TestExtractorErrorsPropagate(t *testing.T) {
	f, _ := newTestFarm(t, Config{
		Extractor: core.New(core.Options{Limits: core.Limits{MaxInputBytes: 16}}),
	})
	spec := testSpec("limits.example", "row-table")
	if _, _, err := f.Extract(context.Background(), spec.Name, core.NewPage(spec.Page(0).HTML)); err == nil {
		t.Fatal("oversized page did not error")
	}
	if f.Len() != 0 {
		t.Fatalf("failed learn cached a rule: Len = %d", f.Len())
	}
}

// TestWrapperSchemaLivesOnEntry: the record schema is learned once per
// rule entry, reused by later pages, and dropped with the entry when a
// peer's newer rule overwrites it — without the schema ever touching
// the rule's version.
func TestWrapperSchemaLivesOnEntry(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	ctx := context.Background()
	spec := testSpec("schema.example", "row-table")
	wrapperFor := func(i int) *wrapgen.Wrapper {
		t.Helper()
		html := spec.Page(i).HTML
		res, _, err := f.Extract(ctx, spec.Name, core.NewPage(html))
		if err != nil {
			t.Fatalf("page %d: Extract: %v", i, err)
		}
		w, got, err := f.Wrapper(ctx, spec.Name, core.NewPage(html), res)
		if err != nil || got != res {
			t.Fatalf("page %d: Wrapper = (%v, relearned %v), want the served result", i, err, got != res)
		}
		if len(w.Project(res.Objects)) == 0 {
			t.Fatalf("page %d: schema projected no records", i)
		}
		return w
	}

	first := wrapperFor(0)
	if again := wrapperFor(1); again != first {
		t.Error("second page relearned the schema instead of reusing the entry's")
	}
	if r, _ := f.Get(spec.Name); r.Version != 1 {
		t.Errorf("rule version = %d after schema learning, want 1", r.Version)
	}

	cur, _ := f.Get(spec.Name)
	cur.Version = 2
	if !f.ApplyRemote(StoredRule{Rule: cur}) {
		t.Fatal("ApplyRemote rejected a newer rule")
	}
	if after := wrapperFor(2); after == first {
		t.Error("schema survived a replicated overwrite of its rule")
	}
}
