package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/serve"
)

// bootScrape GETs /metricsz from h, which has served no request, and
// checks the exposition's shape: each family has one # HELP line
// directly followed by its one # TYPE line, and every counter and every
// histogram count reads 0. It returns the series seen, in exposition
// form, histograms under their family name.
func bootScrape(t *testing.T, h http.Handler) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	seen := make(map[string]bool)
	helped, typed := make(map[string]bool), make(map[string]bool)
	var fam, kind string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		f := strings.Fields(line)
		switch {
		case f[0] == "#" && f[1] == "HELP":
			if helped[f[2]] {
				t.Errorf("family %s has two # HELP lines", f[2])
			}
			helped[f[2]], fam, kind = true, f[2], ""
		case f[0] == "#" && f[1] == "TYPE":
			if f[2] != fam || kind != "" || typed[f[2]] {
				t.Errorf("# TYPE %s is not the one line after its # HELP line", f[2])
			}
			typed[f[2]], kind = true, f[3]
		case kind == "counter" || kind == "gauge":
			seen[f[0]] = true
			if kind == "counter" && f[1] != "0" {
				t.Errorf("counter %s = %s before any request, want 0", f[0], f[1])
			}
		case kind == "histogram" && strings.HasPrefix(f[0], fam+"_count"):
			seen[fam+strings.TrimPrefix(f[0], fam+"_count")] = true
			if f[1] != "0" {
				t.Errorf("histogram %s = %s before any request, want 0", f[0], f[1])
			}
		}
	}
	return seen
}

// expose maps registry series names to their exposition form.
func expose(names ...string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		fam, labels, _ := strings.Cut(name, "{")
		if labels != "" {
			labels = "{" + labels
		}
		out[i] = strings.ReplaceAll(fam, ".", "_") + labels
	}
	return out
}

// The declarations make pre-registration structural: a freshly built
// serve.Server, and a cluster node fronting one, expose every series of
// the components they link before serving a single request — each at
// zero, each family with its help text.
func TestBootScrapeShowsEveryDeclaredSeries(t *testing.T) {
	phases := append([]string{"handler", "farm.fast", "farm.slow"}, core.Phases...)
	served := []string{
		"serve.requests", "serve.errors", "serve.panics", "serve.shed", "serve.rule_stale",
		"serve.inflight", "trace.sampled", "trace.stored", "trace.evicted", "trace.buffered",
		`omini_request_seconds{path="/extract"}`, `omini_request_seconds{path="other"}`,
		core.SeriesExtractions, core.SeriesErrors, core.SeriesDeadlineExceeded, core.SeriesCancelled,
		core.SeriesRuleExtractions, core.SeriesRuleMismatches, core.SeriesBatchPages,
		core.SeriesBatchErrors, core.SeriesBatchRuleHits, core.SeriesBatchWatchdog,
		core.SeriesBatchPanics, core.SeriesLimitInput, core.SeriesLimitTokens,
		core.SeriesLimitNodes, core.SeriesLimitDepth, core.SeriesLimitObjects, core.SeriesLimitOther,
		farm.SeriesHits, farm.SeriesMisses, farm.SeriesLearns, farm.SeriesCoalesced,
		farm.SeriesStale, farm.SeriesDriftChecks, farm.SeriesDriftDetected, farm.SeriesRelearn,
		farm.SeriesRelearnFailures, farm.SeriesSampleDropped, farm.SeriesEvictions,
		farm.SeriesStoreSaves, farm.SeriesStoreErrors, "farm.rules", "farm.store_bytes",
		"farm.tombstones", `farm.path_seconds{path="fast"}`, `farm.path_seconds{path="slow"}`,
		resilience.SeriesBreakerOpen, resilience.SeriesBreakerHalfOpen,
		resilience.SeriesBreakerClosed, "breaker.short_circuit", "retry.attempts", "retry.retries",
	}
	routed := []string{
		SeriesRequests, SeriesLocal, SeriesProxied, SeriesFailover, SeriesFallbackLocal,
		SeriesShedPropagated, SeriesDeadline, SeriesEjections, SeriesReadmissions, SeriesProbes,
		SeriesProbeFailures, SeriesBatchPages, SeriesRedispatch, SeriesBatchErrors,
		"cluster.ring_nodes", "cluster.peers", "cluster.hop_seconds",
		obs.PhaseSeries("route"), obs.PhaseSeries("hop"),
	}
	for _, phase := range phases {
		served = append(served, obs.PhaseSeries(phase))
	}

	stats := resilience.NewStats()
	node := New(Config{
		Self:  "n0",
		Peers: map[string]string{"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2"},
		Local: serve.New(serve.Config{Stats: stats}),
		Stats: stats,
	})
	for name, c := range map[string]struct {
		h    http.Handler
		want []string
	}{
		"serve.Server": {serve.New(serve.Config{Stats: resilience.NewStats()}), served},
		"cluster node": {node, append(routed, served...)},
	} {
		seen := bootScrape(t, c.h)
		for _, series := range expose(c.want...) {
			if !seen[series] {
				t.Errorf("%s: boot scrape lacks %s", name, series)
			}
		}
	}
}
