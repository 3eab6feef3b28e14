package core_test

import (
	"context"
	"testing"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/obs"
	"omini/internal/sitegen"
)

// TestExtractBatchCountersMatchResults reconciles the metrics registry
// against a concurrent batch's actual results: an operator reading
// /metricsz must see exactly what the batch returned. Run under -race this
// also hammers the registry and span recorder from many workers at once.
func TestExtractBatchCountersMatchResults(t *testing.T) {
	reqs := batchPages(t, 20) // 60 good pages across 3 sites
	// Salt the batch with pages that fail discovery, so the error counter
	// has something to count.
	for i := 0; i < 5; i++ {
		reqs = append(reqs, core.BatchRequest{
			Site: "object-free.example",
			HTML: "<html><body><p>prose, no object list</p></body></html>",
		})
	}
	if len(reqs) < 50 {
		t.Fatalf("batch too small for a meaningful hammer: %d pages", len(reqs))
	}

	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	f, _ := newFarm(t, farm.Config{})
	results := f.ExtractBatch(ctx, reqs, core.BatchOptions{Workers: 8})

	var errs, ruleHits int64
	for _, r := range results {
		if r.Err != nil {
			errs++
		}
		if r.FromRule {
			ruleHits++
		}
	}
	if errs == 0 {
		t.Fatal("salted pages produced no errors; the reconciliation below would be vacuous")
	}

	if got := reg.Get("core.batch_pages"); got != int64(len(reqs)) {
		t.Errorf("core.batch_pages = %d, want %d", got, len(reqs))
	}
	if got := reg.Get("core.batch_errors"); got != errs {
		t.Errorf("core.batch_errors = %d, want %d (observed errors)", got, errs)
	}
	if got := reg.Get("core.batch_rule_hits"); got != ruleHits {
		t.Errorf("core.batch_rule_hits = %d, want %d (observed rule hits)", got, ruleHits)
	}
	if got := reg.Get("core.batch_panics"); got != 0 {
		t.Errorf("core.batch_panics = %d, want 0", got)
	}

	// Every page parses, so the parse-phase histograms must have at least
	// one observation per request; discovery-only phases ran on every
	// non-rule page.
	for _, phase := range []string{"tokenize", "tidy", "build"} {
		if got := reg.Histogram(obs.PhaseSeries(phase)).Count(); got < int64(len(reqs)) {
			t.Errorf("phase %q count = %d, want >= %d", phase, got, len(reqs))
		}
	}
	discovery := int64(len(reqs)) - ruleHits
	for _, phase := range []string{"subtree", "separator"} {
		if got := reg.Histogram(obs.PhaseSeries(phase)).Count(); got < discovery {
			t.Errorf("phase %q count = %d, want >= %d", phase, got, discovery)
		}
	}
}

// TestExtractBatchTraceIsolation proves tracing is per-context: a traced
// batch records spans, an untraced extraction sharing the process does not
// see them.
func TestExtractBatchTraceIsolation(t *testing.T) {
	e := core.New(core.Options{})
	page := sitegen.LOC()

	ctx, rec := obs.WithTraceRecorder(context.Background(), false)
	res, err := e.ExtractContext(ctx, page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced extraction returned no trace")
	}
	if res.Trace.SubtreePath != res.SubtreePath || res.Trace.Separator != res.Separator {
		t.Errorf("trace winner (%s, %s) != result (%s, %s)",
			res.Trace.SubtreePath, res.Trace.Separator, res.SubtreePath, res.Separator)
	}
	if len(rec.Spans()) == 0 {
		t.Error("trace recorder captured no spans")
	}

	plain, err := e.Extract(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced extraction carries a trace")
	}
}
