package fetch

import (
	"context"
	"sync"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

// chaosSpecs defines ten synthetic sites across layouts and domains; with
// twenty pages each they form the 200-page chaos corpus.
func chaosSpecs() []sitegen.SiteSpec {
	layouts := []string{
		"row-table", "ul-record", "dl-record", "item-table", "para-record",
		"para-div", "div-card", "hr-record", "font-catalog", "row-table",
	}
	domains := []sitegen.Domain{
		sitegen.DomainBooks, sitegen.DomainNews, sitegen.DomainProducts,
		sitegen.DomainSearch, sitegen.DomainAuctions,
	}
	specs := make([]sitegen.SiteSpec, len(layouts))
	for i, layout := range layouts {
		specs[i] = sitegen.SiteSpec{
			Name:       "chaos-" + string(rune('a'+i)) + ".example",
			Domain:     domains[i%len(domains)],
			LayoutName: layout,
			MinItems:   5, MaxItems: 14,
		}
	}
	return specs
}

// TestFaultyServerCapsConsecutiveFaults pins the property the chaos test
// relies on: with MaxConsecutive set, no page can fail more times in a row
// than the cap, so a retry budget of cap+1 attempts always converges.
func TestFaultyServerCapsConsecutiveFaults(t *testing.T) {
	corpus := NewCorpusServer()
	page := sitegen.Canoe()
	corpus.Add(page)
	faulty := NewFaultyServer(corpus, FaultConfig{
		ErrorRate:      1.0, // every roll is a fault...
		MaxConsecutive: 2,   // ...but streaks are capped at 2
		Seed:           1,
	})
	if err := faulty.Start(); err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	f := Fetcher{Retry: fastRetry(3)}
	for i := 0; i < 5; i++ {
		body, err := f.Fetch(context.Background(), faulty.URL(page))
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if body != page.HTML {
			t.Fatalf("fetch %d: body differs", i)
		}
	}
	injErr, _, _, served := faulty.FaultCounts()
	if injErr != 10 || served != 5 { // 2 faults then 1 success, 5 times over
		t.Errorf("errors=%d served=%d, want 10/5", injErr, served)
	}
}

// TestChaosPipelineConvergesUnderFaults is the acceptance experiment for
// the resilience layer: a 200-page batch fetch+extract against an upstream
// injecting 30% transient failures (500s, dropped connections, truncated
// bodies) plus random latency must converge to >= 99% per-page success with
// zero process crashes.
func TestChaosPipelineConvergesUnderFaults(t *testing.T) {
	corpus := NewCorpusServer()
	var pages []sitegen.Page
	var sites []string
	for _, spec := range chaosSpecs() {
		for i := 0; i < 20; i++ {
			page := spec.Page(i)
			corpus.Add(page)
			pages = append(pages, page)
			sites = append(sites, spec.Name)
		}
	}
	if len(pages) != 200 {
		t.Fatalf("corpus = %d pages, want 200", len(pages))
	}

	faulty := NewFaultyServer(corpus, FaultConfig{
		ErrorRate:    0.15,
		DropRate:     0.08,
		TruncateRate: 0.07, // 30% injected failure in total
		MaxLatency:   2 * time.Millisecond,
		// Failures stay transient: at most 3 faults in a row per page.
		MaxConsecutive: 3,
		Seed:           42,
	})
	if err := faulty.Start(); err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	stats := resilience.NewStats()
	f := Fetcher{
		// MaxAttempts must exceed the fault streak cap; no breaker here —
		// everything shares one loopback host, and a 30% failure rate is
		// exactly what retries (not short-circuiting) are for.
		Retry: &resilience.RetryPolicy{
			MaxAttempts:    5,
			BaseDelay:      time.Millisecond,
			MaxDelay:       8 * time.Millisecond,
			AttemptTimeout: 10 * time.Second,
			Stats:          stats,
		},
	}

	bodies := make([]string, len(pages))
	fetchErrs := make([]error, len(pages))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i := range pages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bodies[i], fetchErrs[i] = f.Fetch(context.Background(), faulty.URL(pages[i]))
		}(i)
	}
	wg.Wait()

	reqs := make([]core.BatchRequest, 0, len(pages))
	fetched := 0
	for i := range pages {
		if fetchErrs[i] != nil {
			t.Logf("fetch %s: %v", pages[i].Name, fetchErrs[i])
			continue
		}
		if bodies[i] != pages[i].HTML {
			t.Errorf("page %s: fetched body differs from source (truncation leaked through)", pages[i].Name)
			continue
		}
		fetched++
		reqs = append(reqs, core.BatchRequest{Site: sites[i], HTML: bodies[i]})
	}

	rulesFarm, err := farm.New(farm.Config{Stats: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	results := rulesFarm.ExtractBatch(context.Background(), reqs, core.BatchOptions{Workers: 8})
	succeeded := 0
	for i, res := range results {
		if res.Err != nil {
			t.Logf("extract %s: %v", reqs[i].Site, res.Err)
			continue
		}
		succeeded++
	}

	injErr, injDrop, injTrunc, served := faulty.FaultCounts()
	t.Logf("injected: %d errors, %d drops, %d truncations; %d clean; retries=%d attempts=%d; fetched=%d/200 extracted=%d/200",
		injErr, injDrop, injTrunc, served,
		stats.Get("retry.retries"), stats.Get("retry.attempts"), fetched, succeeded)

	if injErr == 0 || injDrop == 0 || injTrunc == 0 {
		t.Errorf("fault injection too quiet: errors=%d drops=%d truncations=%d", injErr, injDrop, injTrunc)
	}
	if injected := injErr + injDrop + injTrunc; float64(injected)/float64(injected+served) < 0.2 {
		t.Errorf("injected failure share %d/%d below the intended ~30%%", injected, injected+served)
	}
	if succeeded < 198 { // the >= 99% bar on 200 pages
		t.Errorf("per-page success = %d/200, want >= 198", succeeded)
	}
}
