package core

import (
	"context"
	"errors"
	"testing"

	"omini/internal/govern"
	"omini/internal/rules"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// batchPages builds a batch over several sites' pages.
func batchPages(t *testing.T, perSite int) []BatchRequest {
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
	var reqs []BatchRequest
	for i := 0; i < perSite; i++ {
		for _, spec := range specs {
			page := spec.Page(i)
			reqs = append(reqs, BatchRequest{Site: spec.Name, HTML: page.HTML})
		}
	}
	return reqs
}

func TestExtractBatchBasic(t *testing.T) {
	e := New(Options{})
	reqs := batchPages(t, 4)
	results := e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 4})
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
}

func TestExtractBatchSharedStore(t *testing.T) {
	e := New(Options{})
	store := rules.NewStore()
	reqs := batchPages(t, 2)
	e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 2, Rules: store})
	if store.Len() != 3 {
		t.Errorf("store holds %d rules, want 3 sites", store.Len())
	}
	// A second batch starts warm: every page should take the rule path.
	results := e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 2, Rules: store})
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
	e := New(Options{})
	good := sitegen.LOC()
	reqs := []BatchRequest{
		{Site: good.Site, HTML: good.HTML},
		{Site: "bad.example", HTML: "<html><body>prose only</body></html>"},
		{Site: good.Site, HTML: good.HTML},
	}
	results := e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good pages failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("object-free page succeeded")
	}
}

func TestExtractBatchCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch
	reqs := batchPages(t, 2)
	results := e.ExtractBatch(ctx, reqs, BatchOptions{Workers: 1})
	undispatched := 0
	for i, r := range results {
		// Every page — dispatched and interrupted by the governor, or
		// never dispatched at all — reports the cancellation.
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
		if errors.Is(r.Err, ErrUndispatched) {
			undispatched++
		}
	}
	if undispatched == 0 {
		t.Error("no request was marked undispatched")
	}
}

func TestExtractBatchStaleRule(t *testing.T) {
	e := New(Options{})
	store := rules.NewStore()
	// Seed a rule that does not match the pages.
	if err := store.Put(rules.Rule{
		Site: "batch-a.example", SubtreePath: "html[1].body[2].div[9]", Separator: "li",
	}); err != nil {
		t.Fatal(err)
	}
	reqs := batchPages(t, 1)[:1] // one batch-a page
	results := e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 1, Rules: store})
	if results[0].Err != nil {
		t.Fatalf("stale rule not recovered: %v", results[0].Err)
	}
	if results[0].FromRule {
		t.Error("stale rule claimed the fast path")
	}
	// The store must now hold a working rule.
	rule, err := store.Get("batch-a.example")
	if err != nil {
		t.Fatal(err)
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
	e := New(Options{Subtree: panicHeuristic{}})
	reqs := batchPages(t, 2)
	results := e.ExtractBatch(context.Background(), reqs, BatchOptions{Workers: 3})
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("result %d: panic produced no error", i)
		}
		if !errors.Is(res.Err, ErrPanicked) {
			t.Errorf("result %d: err = %v, want ErrPanicked", i, res.Err)
		}
		if res.Site != reqs[i].Site {
			t.Errorf("result %d: site = %q, want %q", i, res.Site, reqs[i].Site)
		}
	}
}

func TestExtractBatchEmpty(t *testing.T) {
	e := New(Options{})
	if got := e.ExtractBatch(context.Background(), nil, BatchOptions{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}
