package cluster

import "omini/internal/obs"

// Registry series emitted by this package, by name (for reading with
// Registry.Get) and as declared handles (for emitting).
const (
	SeriesRequests       = "cluster.requests"
	SeriesLocal          = "cluster.local"
	SeriesProxied        = "cluster.proxied"
	SeriesFailover       = "cluster.failover"
	SeriesFallbackLocal  = "cluster.fallback_local"
	SeriesShedPropagated = "cluster.shed_propagated"
	SeriesDeadline       = "cluster.deadline"
	SeriesEjections      = "cluster.ejections"
	SeriesReadmissions   = "cluster.readmissions"
	SeriesProbes         = "cluster.probes"
	SeriesProbeFailures  = "cluster.probe_failures"
	SeriesBatchPages     = "cluster.batch_pages"
	SeriesRedispatch     = "cluster.redispatch"
	SeriesBatchErrors    = "cluster.batch_errors"
)

var (
	requestCount   = obs.NewCounter(SeriesRequests, "Requests that entered the router (a site parameter was present and a ring exists).")
	localCount     = obs.NewCounter(SeriesLocal, "Routed requests served by this node's own shard, with no network hop.")
	proxiedCount   = obs.NewCounter(SeriesProxied, "Routed requests served by a peer.")
	failoverCount  = obs.NewCounter(SeriesFailover, "Hop switches: a candidate node failed or its breaker was open, and the router moved to the next node on the ring.")
	fallbackLocal  = obs.NewCounter(SeriesFallbackLocal, "Degraded requests extracted locally because every peer for the shard was down.")
	shedPropagated = obs.NewCounter(SeriesShedPropagated, "Downstream 429/503 load-shed responses relayed to the client with Retry-After preserved.")
	deadlineCount  = obs.NewCounter(SeriesDeadline, "Requests that ran out of routing budget (mapped to 504).")
	ejections      = obs.NewCounter(SeriesEjections, "Nodes ejected from the ring by the health checker.")
	readmissions   = obs.NewCounter(SeriesReadmissions, "Ejected nodes readmitted by the health checker.")
	probes         = obs.NewCounter(SeriesProbes, "Health checks run.")
	probeFailures  = obs.NewCounter(SeriesProbeFailures, "Health checks that failed.")
	batchPages     = obs.NewCounter(SeriesBatchPages, "Pages completed by distributed batches.")
	redispatches   = obs.NewCounter(SeriesRedispatch, "Batch pages served by a node other than their ring owner (the owner died or was ejected mid-batch).")
	batchErrors    = obs.NewCounter(SeriesBatchErrors, "Distributed batch pages that returned an error.")

	ringNodesGauge = obs.NewGauge("cluster.ring_nodes", "Healthy (admitted) nodes on the ring.")
	peersGauge     = obs.NewGauge("cluster.peers", "Configured cluster size.")

	hopSeconds = obs.NewLatency("cluster.hop_seconds", "Latency of proxy hops across all peers; per-node p50/p99 live on /clusterz.")

	phaseRoute = obs.NewPhase("route")
	phaseHop   = obs.NewPhase("hop")
)
