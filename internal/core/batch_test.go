package core_test

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/rules"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// newFarm builds the farm a batch runs through, on a private registry
// so counter asserts are isolated per test.
func newFarm(t *testing.T, cfg farm.Config) (*farm.Farm, *obs.Registry) {
	t.Helper()
	cfg.Stats = obs.NewRegistry()
	cfg.Logger = obs.NewLogger(io.Discard, obs.LevelError)
	f, err := farm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, cfg.Stats
}

// batchPages builds a batch over several sites' pages.
func batchPages(t *testing.T, perSite int) []core.BatchRequest {
	t.Helper()
	specs := []sitegen.SiteSpec{
		{
			Name: "batch-a.example", Domain: sitegen.DomainBooks,
			LayoutName: "row-table", MinItems: 5, MaxItems: 12,
		},
		{
			Name: "batch-b.example", Domain: sitegen.DomainNews,
			LayoutName: "ul-record", MinItems: 5, MaxItems: 12,
		},
		{
			Name: "batch-c.example", Domain: sitegen.DomainSearch,
			LayoutName: "para-record", MinItems: 5, MaxItems: 12,
		},
	}
	var reqs []core.BatchRequest
	for i := 0; i < perSite; i++ {
		for _, spec := range specs {
			page := spec.Page(i)
			reqs = append(reqs, core.BatchRequest{Site: spec.Name, HTML: page.HTML})
		}
	}
	return reqs
}

func TestExtractBatchBasic(t *testing.T) {
	f, reg := newFarm(t, farm.Config{})
	reqs := batchPages(t, 4)
	results := f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 4})
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	fromRule := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Site, r.Err)
		}
		if r.Site != reqs[i].Site {
			t.Errorf("result %d site = %q, want %q", i, r.Site, reqs[i].Site)
		}
		if len(r.Result.Objects) == 0 {
			t.Errorf("request %d: no objects", i)
		}
		if r.FromRule {
			fromRule++
		}
	}
	// With 4 pages per site, at least the later pages of each site should
	// ride the rule cache (the first successful page of each site learns).
	if fromRule < len(reqs)/2 {
		t.Errorf("only %d/%d extractions used cached rules", fromRule, len(reqs))
	}
	if got := reg.Get(farm.SeriesLearns); got != 3 {
		t.Errorf("farm.learns = %d, want 3 (one per site)", got)
	}
}

func TestExtractBatchSharedStore(t *testing.T) {
	f, _ := newFarm(t, farm.Config{})
	reqs := batchPages(t, 2)
	f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 2})
	if f.Len() != 3 {
		t.Errorf("store holds %d rules, want 3 sites", f.Len())
	}
	// A second batch starts warm: every page should take the rule path.
	results := f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 2})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("warm request %d: %v", i, r.Err)
		}
		if !r.FromRule {
			t.Errorf("warm request %d bypassed the rule cache", i)
		}
	}
}

func TestExtractBatchMixedFailures(t *testing.T) {
	f, _ := newFarm(t, farm.Config{})
	good := sitegen.LOC()
	reqs := []core.BatchRequest{
		{Site: good.Site, HTML: good.HTML},
		{Site: "bad.example", HTML: "<html><body>prose only</body></html>"},
		{Site: good.Site, HTML: good.HTML},
	}
	results := f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good pages failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("object-free page succeeded")
	}
}

func TestExtractBatchCancellation(t *testing.T) {
	f, _ := newFarm(t, farm.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch
	reqs := batchPages(t, 2)
	results := f.ExtractBatch(ctx, reqs, core.BatchOptions{Workers: 1})
	undispatched := 0
	for i, r := range results {
		// Every page — dispatched and interrupted by the governor, or
		// never dispatched at all — reports the cancellation.
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
		if errors.Is(r.Err, core.ErrUndispatched) {
			undispatched++
		}
	}
	if undispatched == 0 {
		t.Error("no request was marked undispatched")
	}
}

func TestExtractBatchStaleRule(t *testing.T) {
	f, _ := newFarm(t, farm.Config{})
	// Seed a rule that does not match the pages.
	f.Put(rules.Rule{
		Site: "batch-a.example", SubtreePath: "html[1].body[2].div[9]", Separator: "li",
	}, nil)
	reqs := batchPages(t, 1)[:1] // one batch-a page
	results := f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 1})
	if results[0].Err != nil {
		t.Fatalf("stale rule not recovered: %v", results[0].Err)
	}
	if results[0].FromRule {
		t.Error("stale rule claimed the fast path")
	}
	// The store must now hold a working rule.
	rule, ok := f.Get("batch-a.example")
	if !ok {
		t.Fatal("no rule for batch-a.example")
	}
	if rule.SubtreePath == "html[1].body[2].div[9]" {
		t.Error("stale rule was not refreshed")
	}
}

// panicHeuristic stands in for a pipeline stage with a latent crash bug.
type panicHeuristic struct{}

func (panicHeuristic) Name() string { return "panic" }
func (panicHeuristic) Rank(*tagtree.Node, *govern.Guard) ([]subtree.Ranked, error) {
	panic("pathological page")
}

func TestExtractBatchIsolatesPanics(t *testing.T) {
	f, _ := newFarm(t, farm.Config{Extractor: core.New(core.Options{Subtree: panicHeuristic{}})})
	reqs := batchPages(t, 2)
	results := f.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 3})
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("result %d: panic produced no error", i)
		}
		if !errors.Is(res.Err, core.ErrPanicked) {
			t.Errorf("result %d: err = %v, want ErrPanicked", i, res.Err)
		}
		if res.Site != reqs[i].Site {
			t.Errorf("result %d: site = %q, want %q", i, res.Site, reqs[i].Site)
		}
	}
}

func TestExtractBatchEmpty(t *testing.T) {
	f, _ := newFarm(t, farm.Config{})
	if got := f.ExtractBatch(context.Background(), nil, core.BatchOptions{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// gateHeuristic blocks the first ranked page until released, making
// "a page is in flight right now" observable to cancellation tests.
type gateHeuristic struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateHeuristic) Name() string { return "gate" }

func (g *gateHeuristic) Rank(root *tagtree.Node, guard *govern.Guard) ([]subtree.Ranked, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return subtree.Compound().Rank(root, guard)
}

// TestPathologicalBatchMidFlightCancel cancels a batch while a page is
// provably in flight and checks the contract: results stay in input
// order with sites echoed, the interrupted page reports the
// cancellation (not ErrUndispatched), and everything never handed to a
// worker reports ErrUndispatched.
func TestPathologicalBatchMidFlightCancel(t *testing.T) {
	gate := &gateHeuristic{started: make(chan struct{}), release: make(chan struct{})}
	f, _ := newFarm(t, farm.Config{Extractor: core.New(core.Options{Subtree: gate})})
	page := sitegen.LOC()
	reqs := make([]core.BatchRequest, 8)
	for i := range reqs {
		reqs[i] = core.BatchRequest{Site: string(rune('a'+i)) + ".example", HTML: page.HTML}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resc := make(chan []core.BatchResult, 1)
	go func() { resc <- f.ExtractBatch(ctx, reqs, core.BatchOptions{Workers: 1}) }()

	<-gate.started // request 0 is inside the pipeline now
	cancel()
	close(gate.release)
	results := <-resc

	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	undispatched := 0
	for i, r := range results {
		if r.Site != reqs[i].Site {
			t.Errorf("result %d: site %q, want %q (input order broken)", i, r.Site, reqs[i].Site)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
		if errors.Is(r.Err, core.ErrUndispatched) {
			undispatched++
		}
	}
	if errors.Is(results[0].Err, core.ErrUndispatched) {
		t.Error("in-flight page reported ErrUndispatched; want plain cancellation")
	}
	if undispatched != len(reqs)-1 {
		t.Errorf("undispatched = %d, want %d", undispatched, len(reqs)-1)
	}
}

// TestPathologicalBatchWatchdog wedges a page past its PageTimeout and
// checks the worker abandons it with a typed govern.ErrDeadline result
// while the batch itself survives.
func TestPathologicalBatchWatchdog(t *testing.T) {
	gate := &gateHeuristic{started: make(chan struct{}), release: make(chan struct{})}
	f, _ := newFarm(t, farm.Config{Extractor: core.New(core.Options{Subtree: gate})})
	page := sitegen.LOC()
	reqs := []core.BatchRequest{{Site: "stuck.example", HTML: page.HTML}}

	resc := make(chan []core.BatchResult, 1)
	go func() {
		resc <- f.ExtractBatch(context.Background(), reqs,
			core.BatchOptions{Workers: 1, PageTimeout: 30 * time.Millisecond})
	}()
	<-gate.started
	results := <-resc   // the watchdog, not the page, must end the wait
	close(gate.release) // let the abandoned goroutine exit

	if !errors.Is(results[0].Err, govern.ErrDeadline) {
		t.Fatalf("err = %v, want govern.ErrDeadline", results[0].Err)
	}
	if results[0].Site != "stuck.example" {
		t.Errorf("site = %q", results[0].Site)
	}
}
