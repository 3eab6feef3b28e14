package core

import (
	"omini/internal/govern"
	"omini/internal/obs"
)

// Registry series emitted by this package, by name (for reading with
// Registry.Get) and as declared handles (for emitting).
const (
	SeriesExtractions      = "core.extractions"
	SeriesErrors           = "core.errors"
	SeriesDeadlineExceeded = "core.deadline_exceeded"
	SeriesCancelled        = "core.cancelled"
	SeriesRuleExtractions  = "core.rule_extractions"
	SeriesRuleMismatches   = "core.rule_mismatches"

	SeriesBatchPages    = "core.batch_pages"
	SeriesBatchErrors   = "core.batch_errors"
	SeriesBatchRuleHits = "core.batch_rule_hits"
	SeriesBatchWatchdog = "core.batch_watchdog"
	SeriesBatchPanics   = "core.batch_panics"

	SeriesLimitInput   = `core.limit_exceeded{kind="input"}`
	SeriesLimitTokens  = `core.limit_exceeded{kind="tokens"}`
	SeriesLimitNodes   = `core.limit_exceeded{kind="nodes"}`
	SeriesLimitDepth   = `core.limit_exceeded{kind="depth"}`
	SeriesLimitObjects = `core.limit_exceeded{kind="objects"}`
	SeriesLimitOther   = `core.limit_exceeded{kind="other"}`
)

// limitHelp is the help text of the per-kind limit family.
const limitHelp = "Extractions stopped by a resource limit, one series per govern limit kind."

var (
	extractions      = obs.NewCounter(SeriesExtractions, "Full-discovery extractions attempted.")
	extractErrors    = obs.NewCounter(SeriesErrors, "Failed extractions of any cause.")
	deadlineExceeded = obs.NewCounter(SeriesDeadlineExceeded, "Pages that hit the page deadline.")
	cancelled        = obs.NewCounter(SeriesCancelled, "Pages cancelled by the caller.")
	ruleExtractions  = obs.NewCounter(SeriesRuleExtractions, "Cached-rule replays attempted (the fast path).")
	ruleMismatches   = obs.NewCounter(SeriesRuleMismatches, "Cached rules that no longer matched their page.")

	batchPageCount = obs.NewCounter(SeriesBatchPages, "Batch pages handled, one per request.")
	batchErrors    = obs.NewCounter(SeriesBatchErrors, "Batch pages that returned an error.")
	batchRuleHits  = obs.NewCounter(SeriesBatchRuleHits, "Batch pages served by a cached rule.")
	batchWatchdog  = obs.NewCounter(SeriesBatchWatchdog, "Batch pages abandoned by the per-page watchdog.")
	batchPanics    = obs.NewCounter(SeriesBatchPanics, "Batch pages whose extraction panicked.")

	limitInput   = obs.NewCounter(SeriesLimitInput, limitHelp)
	limitTokens  = obs.NewCounter(SeriesLimitTokens, limitHelp)
	limitNodes   = obs.NewCounter(SeriesLimitNodes, limitHelp)
	limitDepth   = obs.NewCounter(SeriesLimitDepth, limitHelp)
	limitObjects = obs.NewCounter(SeriesLimitObjects, limitHelp)
	limitOther   = obs.NewCounter(SeriesLimitOther, limitHelp)
)

// The pipeline's spans, in Phases order.
var (
	phaseTokenize  = obs.NewPhase("tokenize")
	phaseTidy      = obs.NewPhase("tidy")
	phaseBuild     = obs.NewPhase("build")
	phaseSubtree   = obs.NewPhase("subtree")
	phaseSeparator = obs.NewPhase("separator")
	phaseExtract   = obs.NewPhase("extract")
)

// Phases are the spans an extraction records, in pipeline order; each
// span's wall time lands in the obs.PhaseSeries histogram of its name.
// Rule replay skips separator and times the rule's path lookup as subtree.
var Phases = []string{
	phaseTokenize.Name(), phaseTidy.Name(), phaseBuild.Name(),
	phaseSubtree.Name(), phaseSeparator.Name(), phaseExtract.Name(),
}

// limitCounter maps a govern limit kind to its counter.
func limitCounter(kind string) *obs.Counter {
	switch kind {
	case govern.KindInput:
		return limitInput
	case govern.KindTokens:
		return limitTokens
	case govern.KindNodes:
		return limitNodes
	case govern.KindDepth:
		return limitDepth
	case govern.KindObjects:
		return limitObjects
	}
	return limitOther
}
