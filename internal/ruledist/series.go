package ruledist

import "omini/internal/obs"

// Registry series emitted by this package, by name (for reading with
// Registry.Get) and as declared handles (for emitting).
const (
	SeriesRounds            = "ruledist.rounds"
	SeriesJoinSyncs         = "ruledist.join_syncs"
	SeriesPeerSyncs         = "ruledist.peer_syncs"
	SeriesPeerErrors        = "ruledist.peer_errors"
	SeriesBreakerSkips      = "ruledist.skipped_breaker"
	SeriesNotModified       = "ruledist.not_modified"
	SeriesRulesPulled       = "ruledist.rules_pulled"
	SeriesStaleIgnored      = "ruledist.stale_ignored"
	SeriesTombstonesApplied = "ruledist.tombstones_applied"
	SeriesCorruptDiscarded  = "ruledist.corrupt_discarded"
)

var (
	rounds            = obs.NewCounter(SeriesRounds, "Completed anti-entropy rounds (SyncAll).")
	joinSyncs         = obs.NewCounter(SeriesJoinSyncs, "Budget-bounded warm-up rounds run before a node flipped ready (SyncOnJoin).")
	peerSyncs         = obs.NewCounter(SeriesPeerSyncs, "Per-peer conversations that fully applied.")
	peerErrors        = obs.NewCounter(SeriesPeerErrors, "Per-peer conversations that failed and were skipped.")
	breakerSkips      = obs.NewCounter(SeriesBreakerSkips, "Peers skipped because their circuit breaker was open.")
	notModified       = obs.NewCounter(SeriesNotModified, "Digest polls answered 304, the steady state once the cluster has converged.")
	rulesPulled       = obs.NewCounter(SeriesRulesPulled, "Remote rules merged into the local farm.")
	staleIgnored      = obs.NewCounter(SeriesStaleIgnored, "Pulled rules rejected because the local version (rule or tombstone) was at least as new.")
	tombstonesApplied = obs.NewCounter(SeriesTombstonesApplied, "Remote evictions honored locally.")
	corruptDiscarded  = obs.NewCounter(SeriesCorruptDiscarded, "Transfers thrown away whole: oversized, truncated or undecodable bodies.")

	peersGauge = obs.NewGauge("ruledist.peers", "Sync targets: the peer set minus this node.")

	phaseSync = obs.NewPhase("ruledist.sync")
	phasePull = obs.NewPhase("ruledist.pull")
)
