// The race detector's sync.Pool drops pooled items at random, so pooled
// paths allocate more under -race: the budgets hold for normal builds.

//go:build !race

package omini_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/serve"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// allocBudgets are the committed allocation ceilings, allocs per call:
// each is the count measured when it was set. A ceiling may move down
// freely; raising one needs a CHANGES.md line giving the reason.
var allocBudgets = map[string]float64{
	"tokenize/small":     9,
	"tokenize/medium":    10,
	"tokenize/large":     11,
	"tidy/small":         6,
	"tidy/medium":        7,
	"tidy/large":         7,
	"build/small":        3,
	"build/medium":       3,
	"build/large":        3,
	"discovery/small":    123,
	"discovery/medium":   92,
	"discovery/large":    97,
	"replay/small":       27,
	"replay/medium":      25,
	"replay/large":       26,
	"serve hot sample=0": 74,
	"serve hot sample=1": 83,
}

// TestAllocBudgets fails when an entry point allocates more per call
// than its committed ceiling: Phase 1's three entry points on the
// small, medium and large bench pages, core's discovery and rule
// replay on the same pages, and one hot /extract through the whole
// serving layer, untraced and traced. Allocation counts repeat from
// run to run, so the gate has no noise to allow for.
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
		measured["discovery/"+size] = func() { _, _ = ex.ExtractContext(ctx, html) }
		measured["replay/"+size] = func() { _, _ = ex.ExtractWithRuleContext(ctx, html, rule) }
	}
	for name, rate := range map[string]float64{"serve hot sample=0": -1, "serve hot sample=1": 1} {
		measured[name] = hotRequest(t, rate)
	}

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
		got := testing.AllocsPerRun(50, f)
		switch {
		case got > ceiling:
			t.Errorf("%s: %v allocs per call, over its ceiling of %v", name, got, ceiling)
		case got < ceiling:
			t.Logf("%s: %v allocs per call, under its ceiling of %v: lower the ceiling", name, got, ceiling)
		}
	}
	for name := range measured {
		if _, ok := allocBudgets[name]; !ok {
			t.Errorf("%s: measured without a budget", name)
		}
	}
}

// hotRequest returns a function serving one hot /extract request, as
// BenchmarkServeExtractHot does, on a server that has learned every
// corpus site and traces the given share of requests
// (Config.TraceSampleRate).
func hotRequest(t *testing.T, rate float64) func() {
	t.Helper()
	srv := serve.New(serve.Config{
		Stats:           resilience.NewStats(),
		Logger:          obs.NewLogger(io.Discard, obs.LevelInfo),
		TraceSampleRate: rate,
	})
	post := func(target, html string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
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
		t.Fatal("no corpus page replays a learned rule")
	}
	return func() {
		if code := post(target, html); code != http.StatusOK {
			t.Fatalf("%s: status %d", target, code)
		}
	}
}
