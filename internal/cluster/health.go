package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"omini/internal/govern"
	"omini/internal/resilience"
)

// Run drives the membership health checker until ctx is cancelled:
// every ProbeInterval it probes each peer's /healthz and /readyz,
// ejects a node from the ring after FailThreshold consecutive
// failures, and re-admits it on the first success after. Run returns
// ctx's error, so it slots into an errgroup-style shutdown.
func (c *Coordinator) Run(ctx context.Context) error {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		// Fresh guard per cycle: the Guard is single-goroutine state and
		// each probe sweep is its own unit of governed work.
		c.probeAll(ctx, govern.NewGuard(ctx, govern.Unlimited()))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// probeAll runs one health sweep over every member. Membership state
// mutates under c.mu; a transition (ejection or re-admission) rebuilds
// the ring snapshot.
func (c *Coordinator) probeAll(ctx context.Context, g *govern.Guard) {
	c.mu.RLock()
	targets := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		if err := g.Poll(); err != nil {
			c.mu.RUnlock()
			return
		}
		targets = append(targets, m)
	}
	c.mu.RUnlock()

	changed := false
	var readmitted []string
	for _, m := range targets {
		if err := g.Poll(); err != nil {
			return
		}
		probes.Add(c.stats, 1)
		err := c.probeOne(ctx, m.url)
		c.mu.Lock()
		if err != nil {
			probeFailures.Add(c.stats, 1)
			m.fails++
			m.lastErr = err.Error()
			if m.healthy && m.fails >= c.cfg.FailThreshold {
				m.healthy = false
				changed = true
				ejections.Add(c.stats, 1)
				c.log.Warn("cluster member ejected",
					"node", m.id, "fails", m.fails, "err", err.Error())
			}
		} else {
			if !m.healthy {
				m.healthy = true
				changed = true
				readmitted = append(readmitted, m.id)
				readmissions.Add(c.stats, 1)
				c.log.Info("cluster member readmitted", "node", m.id)
			}
			m.fails = 0
			m.lastErr = ""
		}
		c.mu.Unlock()
	}
	if changed {
		c.mu.Lock()
		c.ring = c.rebuildLocked(g)
		c.mu.Unlock()
	}
	// Callbacks run after the ring rebuild and outside the lock, so a
	// handler that routes (or syncs rules) sees the new topology.
	if c.cfg.OnReadmission != nil {
		for _, id := range readmitted {
			if err := g.Poll(); err != nil {
				return
			}
			c.cfg.OnReadmission(id)
		}
	}
}

// maxProbeBody bounds the read of a probe's answer.
const maxProbeBody = 4 << 10

// probeOne checks one node's liveness and readiness. Both endpoints
// must answer 200 inside ProbeTimeout; anything else — transport
// error, non-200, hung connection — counts as one probe failure.
func (c *Coordinator) probeOne(ctx context.Context, base string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	for _, path := range [...]string{"/healthz", "/readyz"} {
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+path, nil)
		if err != nil {
			return fmt.Errorf("cluster: probe %s%s: %w", base, path, err)
		}
		// The status is the verdict; the body is read only to free the
		// connection.
		res, err := resilience.Call(c.client, req, maxProbeBody)
		if res.Status == 0 {
			return fmt.Errorf("cluster: probe %s%s: %w", base, path, err)
		}
		if res.Status != http.StatusOK {
			return fmt.Errorf("cluster: probe %s%s: status %d", base, path, res.Status)
		}
	}
	return nil
}

// KillForTest immediately marks a node unhealthy and rebuilds the
// ring, bypassing the probe cycle — the chaos harness uses it to
// model an instantaneous ejection decision while the real prober is
// also running. It records the same ejection transition the prober
// would.
func (c *Coordinator) KillForTest(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil || !m.healthy {
		return
	}
	m.healthy = false
	m.fails = c.cfg.FailThreshold
	m.lastErr = "killed by test harness"
	ejections.Add(c.stats, 1)
	c.ring = c.rebuildLocked(nil)
}
