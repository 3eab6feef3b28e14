package farm

// Registry series emitted by this package. One constant per series —
// the obsnames analyzer enforces that emission sites use these and
// that registerMetrics pre-registers every one of them, so /metricsz
// exposes the whole farm surface from boot.
const (
	// SeriesHits counts fast-path extractions served from a cached
	// rule; SeriesMisses counts requests whose site had no cached rule.
	SeriesHits   = "farm.hits"
	SeriesMisses = "farm.misses"
	// SeriesLearns counts full discoveries whose rule was stored (first
	// learns and relearns alike).
	SeriesLearns = "farm.learns"
	// SeriesCoalesced counts requests that joined another request's
	// in-flight discovery for the same site instead of running their
	// own (the singleflight path).
	SeriesCoalesced = "farm.coalesced"
	// SeriesStale counts cached rules that stopped matching their
	// site's pages (core.ErrRuleMismatch on the fast path) and were
	// evicted for relearning.
	SeriesStale = "farm.stale"

	// SeriesDriftChecks counts drift checks run (revalidation samples
	// processed plus the inline check of every Wrapper lookup);
	// SeriesDriftDetected counts the ones whose page had drifted past
	// the threshold (triggering evict + relearn).
	SeriesDriftChecks   = "farm.drift_checks"
	SeriesDriftDetected = "farm.drift_detected"
	// SeriesRelearn counts successful relearns of an evicted rule
	// (drift- or mismatch-triggered); SeriesRelearnFailures counts
	// relearn attempts that failed (the site stays unlearned until its
	// next request).
	SeriesRelearn         = "farm.relearn"
	SeriesRelearnFailures = "farm.relearn_failures"
	// SeriesSampleDropped counts revalidation samples discarded because
	// the sampler's queue was full (sampling is best-effort; serving
	// never blocks on it).
	SeriesSampleDropped = "farm.sample_dropped"

	// SeriesEvictions counts entries displaced by LRU capacity
	// pressure (not drift or staleness).
	SeriesEvictions = "farm.evictions"
	// SeriesStoreSaves counts snapshots persisted to the rule store;
	// SeriesStoreErrors counts failed save attempts.
	SeriesStoreSaves  = "farm.store_saves"
	SeriesStoreErrors = "farm.store_errors"

	// seriesFastSeconds / seriesSlowSeconds split request latency by
	// serving path: "fast" is rule replay, "slow" is full Phase-2
	// discovery. The fast/slow quantile gap on /metricsz is the live
	// measurement of the paper's Table 17 speedup.
	seriesFastSeconds = `farm.path_seconds{path="fast"}`
	seriesSlowSeconds = `farm.path_seconds{path="slow"}`

	// gaugeRules is the number of cached rules; gaugeStoreBytes is the
	// size of the last persisted snapshot (0 until the first save);
	// gaugeTombstones is the number of remembered evictions the
	// anti-entropy layer propagates.
	gaugeRules      = "farm.rules"
	gaugeStoreBytes = "farm.store_bytes"
	gaugeTombstones = "farm.tombstones"
)

// registerMetrics pre-touches every series this package emits, so a
// scrape of a fresh process already shows the full farm surface at
// zero. The obsnames analyzer harvests this function as the boot
// pre-registration set.
func (f *Farm) registerMetrics() {
	for _, name := range []string{
		SeriesHits, SeriesMisses, SeriesLearns, SeriesCoalesced, SeriesStale,
		SeriesDriftChecks, SeriesDriftDetected, SeriesRelearn,
		SeriesRelearnFailures, SeriesSampleDropped,
		SeriesEvictions, SeriesStoreSaves, SeriesStoreErrors,
	} {
		f.stats.Counter(name)
	}
	f.stats.Histogram(seriesFastSeconds)
	f.stats.Histogram(seriesSlowSeconds)
	f.stats.RegisterGaugeFunc(gaugeRules, func() float64 {
		return float64(f.Len())
	})
	f.stats.RegisterGaugeFunc(gaugeStoreBytes, func() float64 {
		return float64(f.storeBytes.Load())
	})
	f.stats.RegisterGaugeFunc(gaugeTombstones, func() float64 {
		return float64(f.TombstoneCount())
	})
}
