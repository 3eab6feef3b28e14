package resilience

import "omini/internal/obs"

// The counter registry this package originally carried is now
// internal/obs.Registry — one metrics subsystem feeds /metricsz and the
// per-phase histograms, instead of a resilience-private counter map.
// The aliases below keep the package's API (retry and breaker configs
// take a *Stats; tests build their own) while making every counter land
// in the shared registry.

// Stats is the metrics registry components publish into (retries, breaker
// trips, shed requests, recovered panics). It is the obs.Registry itself,
// so counters published here appear in Prometheus exposition too.
type Stats = obs.Registry

// Default is the process-wide registry; components fall back to it when no
// Stats is configured, so one /metricsz dump sees everything.
var Default = obs.Default

// NewStats returns an empty registry.
func NewStats() *Stats {
	return obs.NewRegistry()
}
