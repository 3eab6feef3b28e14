package farm

import "omini/internal/obs"

// Registry series emitted by this package, by name (for reading with
// Registry.Get) and as declared handles (for emitting).
const (
	SeriesHits            = "farm.hits"
	SeriesMisses          = "farm.misses"
	SeriesLearns          = "farm.learns"
	SeriesCoalesced       = "farm.coalesced"
	SeriesStale           = "farm.stale"
	SeriesDriftChecks     = "farm.drift_checks"
	SeriesDriftDetected   = "farm.drift_detected"
	SeriesRelearn         = "farm.relearn"
	SeriesRelearnFailures = "farm.relearn_failures"
	SeriesSampleDropped   = "farm.sample_dropped"
	SeriesEvictions       = "farm.evictions"
	SeriesStoreSaves      = "farm.store_saves"
	SeriesStoreErrors     = "farm.store_errors"
)

// pathHelp is the help text of the farm.path_seconds family. The
// fast/slow quantile gap on /metricsz is the live measurement of the
// paper's Table 17 speedup.
const pathHelp = "Extraction latency by serving path: fast is cached-rule replay, slow is full Phase-2 discovery."

var (
	hitCount        = obs.NewCounter(SeriesHits, "Fast-path extractions served from a cached rule.")
	missCount       = obs.NewCounter(SeriesMisses, "Requests whose site had no cached rule.")
	learnCount      = obs.NewCounter(SeriesLearns, "Full discoveries whose rule was stored (first learns and relearns alike).")
	coalescedCount  = obs.NewCounter(SeriesCoalesced, "Requests that joined another request's in-flight discovery for the same site.")
	staleCount      = obs.NewCounter(SeriesStale, "Cached rules that stopped matching their site's pages and were evicted for relearning.")
	driftChecks     = obs.NewCounter(SeriesDriftChecks, "Drift checks run: sampled fast-path hits plus the check of every Wrapper lookup.")
	driftDetected   = obs.NewCounter(SeriesDriftDetected, "Drift checks whose page had drifted past the threshold (evict and relearn).")
	relearnCount    = obs.NewCounter(SeriesRelearn, "Successful relearns of an evicted rule (drift- or mismatch-triggered).")
	relearnFailures = obs.NewCounter(SeriesRelearnFailures, "Relearn attempts that failed; the site stays unlearned until its next request.")
	samplesDropped  = obs.NewCounter(SeriesSampleDropped, "Sampled fast-path hits discarded unchecked because the relearn queue was full.")
	evictionCount   = obs.NewCounter(SeriesEvictions, "Entries displaced by LRU capacity pressure (not drift or staleness).")
	storeSaves      = obs.NewCounter(SeriesStoreSaves, "Snapshots persisted to the rule store.")
	storeErrors     = obs.NewCounter(SeriesStoreErrors, "Failed rule-store save attempts.")

	fastSeconds = obs.NewLatency(`farm.path_seconds{path="fast"}`, pathHelp)
	slowSeconds = obs.NewLatency(`farm.path_seconds{path="slow"}`, pathHelp)

	rulesGauge      = obs.NewGauge("farm.rules", "Cached rules.")
	storeBytesGauge = obs.NewGauge("farm.store_bytes", "Size of the last persisted snapshot in bytes (0 until the first save).")
	tombstonesGauge = obs.NewGauge("farm.tombstones", "Remembered evictions the anti-entropy layer propagates.")

	phaseFast = obs.NewPhase("farm.fast")
	phaseSlow = obs.NewPhase("farm.slow")
)
