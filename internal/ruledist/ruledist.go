// Package ruledist is the rule-replication layer that keeps the
// paper's Table 17 fast path warm across cluster topology changes.
// The farm treats a learned rule as a versioned, persistent artifact;
// this package treats it as a *shared* one: PCSI's observation that
// content-structure inference results should be distributed among
// peers rather than recomputed, applied to Omini's wrapper farm.
//
// The protocol is pull-based anti-entropy over the existing /rulesz
// endpoint. Each round, for every peer in ring order (clockwise
// FNV-64a distance from this node, so ring neighbors — the nodes that
// inherit or donate this node's shards on a topology change — come
// first):
//
//  1. GET /rulesz?view=digest with If-None-Match: the peer's per-site
//     rule and tombstone versions, or a 304 when nothing changed since
//     the last round (the steady-state cost of the whole protocol).
//  2. Diff against the local farm's version vector. Per site the
//     highest version wins, whether it lives in a rule or a tombstone;
//     nothing is wanted from a peer that is behind.
//  3. GET /rulesz?view=sync&sites=... for just the divergent sites.
//     The body is the farm's canonical snapshot codec — the same
//     format the rule store persists — so a truncated or corrupt
//     transfer fails decode and is discarded whole; nothing applies.
//  4. farm.ApplyRemote / farm.ApplyTombstone merge survivors under the
//     version conflict rule. Replicated rules never count as learns.
//
// Failure handling is the design center: every peer conversation goes
// through a per-peer resilience breaker (a dead peer costs one Allow
// check per round, not a timeout), each HTTP call retries with capped
// backoff, the join-time warm-up runs under a hard budget, and every
// degradation lands on the same fallback — learn-on-miss. Sync makes
// the fast path warm; it is never load-bearing for correctness.
package ruledist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// Config tunes a Replicator.
type Config struct {
	// Self is this node's id among Peers; it is skipped when syncing.
	Self string
	// Peers maps node ids to base URLs (the cluster -peers set).
	Peers map[string]string
	// Farm is the local wrapper farm state is merged into. Required.
	Farm *farm.Farm
	// Interval is the background anti-entropy period (default 30s;
	// negative disables the ticker — Run then only serves Kicks).
	Interval time.Duration
	// JoinBudget bounds SyncOnJoin: when it expires the node flips
	// ready anyway and degrades to learn-on-miss (default 15s).
	JoinBudget time.Duration
	// PullTimeout bounds each HTTP attempt against a peer (default 5s).
	PullTimeout time.Duration
	// MaxTransferBytes caps one digest or snapshot transfer; larger
	// responses are discarded as corrupt (default 64 MiB).
	MaxTransferBytes int64
	// PullAttempts, RetryBase and RetryMaxDelay tune the per-call retry
	// policy (defaults 2 attempts, 200ms base, 2s cap).
	PullAttempts  int
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// Breaker tunes the per-peer circuit breakers.
	Breaker resilience.BreakerConfig
	// Stats receives the ruledist.* metrics; nil uses resilience.Default.
	Stats *resilience.Stats
	// Logger receives sync events; nil uses obs.DefaultLogger().
	Logger *obs.Logger
	// Client performs the peer HTTP calls; nil builds one. The
	// replicator sends through a copy whose transport stamps the trace
	// header.
	Client *http.Client
}

const (
	defaultInterval         = 30 * time.Second
	defaultJoinBudget       = 15 * time.Second
	defaultPullTimeout      = 5 * time.Second
	defaultMaxTransferBytes = 64 << 20
	defaultPullAttempts     = 2
	defaultRetryBase        = 200 * time.Millisecond
	defaultRetryMaxDelay    = 2 * time.Second
)

// Replicator keeps the local farm reconciled with its cluster peers.
// Create with New; Run drives the background anti-entropy loop;
// SyncOnJoin is the bounded warm-up a joining node runs before
// flipping /readyz.
type Replicator struct {
	cfg      Config
	farm     *farm.Farm
	client   *http.Client
	stats    *resilience.Stats
	log      *obs.Logger
	breakers *resilience.BreakerGroup
	retry    *resilience.RetryPolicy

	// kick requests an immediate round from Run (coalescing); the
	// coordinator's readmission callback feeds it.
	kick chan struct{}

	mu    sync.Mutex
	etags map[string]string // peer id → last fully-processed digest etag
}

// New returns a replicator for the given peer set.
func New(cfg Config) (*Replicator, error) {
	if cfg.Farm == nil {
		return nil, errors.New("ruledist: Config.Farm is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.JoinBudget <= 0 {
		cfg.JoinBudget = defaultJoinBudget
	}
	if cfg.PullTimeout <= 0 {
		cfg.PullTimeout = defaultPullTimeout
	}
	if cfg.MaxTransferBytes <= 0 {
		cfg.MaxTransferBytes = defaultMaxTransferBytes
	}
	if cfg.PullAttempts <= 0 {
		cfg.PullAttempts = defaultPullAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = defaultRetryMaxDelay
	}
	if cfg.Stats == nil {
		cfg.Stats = resilience.Default
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	// Digest and pull requests carry the sync round's trace decision
	// through the trace boundary's transport.
	cfg.Client = obs.TracingClient(cfg.Client)
	if cfg.Breaker.Stats == nil {
		cfg.Breaker.Stats = cfg.Stats
	}
	r := &Replicator{
		cfg:      cfg,
		farm:     cfg.Farm,
		client:   cfg.Client,
		stats:    cfg.Stats,
		log:      cfg.Logger,
		breakers: resilience.NewBreakerGroup(cfg.Breaker),
		retry: &resilience.RetryPolicy{
			MaxAttempts:    cfg.PullAttempts,
			BaseDelay:      cfg.RetryBase,
			MaxDelay:       cfg.RetryMaxDelay,
			AttemptTimeout: cfg.PullTimeout,
			Stats:          cfg.Stats,
		},
		kick:  make(chan struct{}, 1),
		etags: make(map[string]string),
	}
	npeers := len(cfg.Peers)
	if _, ok := cfg.Peers[cfg.Self]; ok {
		npeers--
	}
	peersGauge.Bind(r.stats, func() float64 { return float64(npeers) })
	return r, nil
}

// Run drives the background anti-entropy loop until ctx is cancelled:
// one SyncAll round per Interval tick, plus an immediate round per
// Kick (ring readmission). The loop is deliberately low-rate — the
// digest 304 makes steady-state rounds nearly free, and divergence is
// bounded by one Interval.
func (r *Replicator) Run(ctx context.Context) error {
	interval := r.cfg.Interval
	if interval <= 0 {
		interval = time.Duration(1<<62 - 1) // ticker disabled; kicks still served
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	g := govern.NewGuard(ctx, govern.Unlimited())
	for {
		if err := g.Poll(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.kick:
			_ = r.SyncAll(ctx)
		case <-ticker.C:
			_ = r.SyncAll(ctx)
		}
	}
}

// Kick requests an immediate sync round from Run. Non-blocking and
// coalescing: a kick during a round schedules exactly one more.
func (r *Replicator) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// SyncOnJoin runs one bounded warm-up round — the "pull your shards
// before taking traffic" step a node runs on admission or re-admission,
// before the caller flips /readyz. The budget is a hard cap: however
// the round ends, the caller marks the node ready and any sites still
// missing degrade to learn-on-miss. The returned error reports what
// was left incomplete; it is advisory, never fatal.
func (r *Replicator) SyncOnJoin(ctx context.Context) error {
	joinSyncs.Add(r.stats, 1)
	jctx, cancel := context.WithTimeout(ctx, r.cfg.JoinBudget)
	defer cancel()
	start := time.Now()
	err := r.SyncAll(jctx)
	if err != nil {
		r.log.Warn("ruledist: join sync incomplete; degrading to learn-on-miss",
			"after", time.Since(start).String(), "err", err.Error())
		return err
	}
	r.log.Info("ruledist: join sync complete",
		"after", time.Since(start).String(), "rules", r.farm.Len())
	return nil
}

// SyncAll runs one anti-entropy round: every peer in ring order, a
// digest poll each, a filtered snapshot pull only where versions
// diverge. Peer failures are counted, logged and skipped — one slow
// or dead peer never blocks reconciling with the rest — and the first
// error is returned for the caller's log.
func (r *Replicator) SyncAll(ctx context.Context) error {
	ctx = obs.WithRegistry(ctx, r.stats)
	g := govern.NewGuard(ctx, govern.Unlimited())
	var firstErr error
	for _, p := range r.peerOrder(g) {
		if err := g.Poll(); err != nil {
			return err
		}
		var err error
		obs.Run(ctx, phaseSync, func(sctx context.Context) { err = r.syncPeer(sctx, g, p.id, p.url) })
		if err != nil {
			peerErrors.Add(r.stats, 1)
			r.log.Warn("ruledist: peer sync failed", "peer", p.id, "err", err.Error())
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		peerSyncs.Add(r.stats, 1)
	}
	rounds.Add(r.stats, 1)
	return firstErr
}

// digest mirrors the /rulesz?view=digest payload: the peer's per-site
// rule and tombstone versions plus the etag identifying the whole set.
type digest struct {
	Etag       string         `json:"etag"`
	Rules      map[string]int `json:"rules"`
	Tombstones map[string]int `json:"tombstones"`
}

// syncPeer reconciles with one peer under its breaker: digest poll,
// version diff, filtered pull (under a "ruledist.pull" span), merge.
// SyncAll runs it under a "ruledist.sync" span. The etag is cached only
// after a round fully applies, so a failed pull retries the diff next
// round.
func (r *Replicator) syncPeer(ctx context.Context, g *govern.Guard, id, base string) error {
	br := r.breakers.For(id)
	if !br.Allow() {
		breakerSkips.Add(r.stats, 1)
		return fmt.Errorf("ruledist: peer %s: breaker open", id)
	}
	d, notMod, err := r.fetchDigest(ctx, id, base)
	if err != nil {
		br.Failure()
		return err
	}
	if notMod {
		br.Success()
		notModified.Add(r.stats, 1)
		return nil
	}
	wants := r.wantSites(g, d)
	if len(wants) == 0 {
		br.Success()
		r.setEtag(id, d.Etag)
		return nil
	}
	var snap farm.Snapshot
	obs.Run(ctx, phasePull, func(pctx context.Context) { snap, err = r.pull(pctx, id, base, wants) })
	if err != nil {
		br.Failure()
		return err
	}
	nrules, ntombs := r.apply(g, snap)
	br.Success()
	r.setEtag(id, d.Etag)
	r.log.Info("ruledist: peer sync applied",
		"peer", id, "wanted", len(wants), "rules", nrules, "tombstones", ntombs)
	return nil
}

// wantSites diffs a peer digest against the local farm: a site is
// wanted when the peer's rule is strictly newer than both the local
// rule and any local tombstone, or when the peer's tombstone would
// kill the local copy. Sorted, so transfers are deterministic.
func (r *Replicator) wantSites(g *govern.Guard, d digest) []string {
	localRules, localTombs := r.farm.VersionVector()
	want := make(map[string]bool, len(d.Rules))
	for site, v := range d.Rules {
		if g.Poll() != nil {
			break
		}
		if v > localRules[site] && v > localTombs[site] {
			want[site] = true
		}
	}
	for site, v := range d.Tombstones {
		if g.Poll() != nil {
			break
		}
		if v > localTombs[site] && v >= localRules[site] {
			want[site] = true
		}
	}
	out := make([]string, 0, len(want))
	for site := range want {
		if g.Poll() != nil {
			break
		}
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// fetchDigest polls one peer's version digest, honoring the cached
// etag (notMod reports a 304).
func (r *Replicator) fetchDigest(ctx context.Context, id, base string) (d digest, notMod bool, err error) {
	err = r.retry.Do(ctx, func(actx context.Context) error {
		req, rerr := http.NewRequestWithContext(actx, http.MethodGet, base+"/rulesz?view=digest", nil)
		if rerr != nil {
			return resilience.Permanent(fmt.Errorf("ruledist: digest %s: %w", id, rerr))
		}
		if etag := r.lastEtag(id); etag != "" {
			req.Header.Set("If-None-Match", `"`+etag+`"`)
		}
		res, rerr := resilience.Call(r.client, req, r.cfg.MaxTransferBytes)
		switch {
		case res.Status == 0:
			return fmt.Errorf("ruledist: digest %s: %w", id, rerr)
		case res.Status == http.StatusNotModified:
			notMod = true
			return nil
		case res.Status != http.StatusOK:
			return fmt.Errorf("ruledist: digest %s: status %d", id, res.Status)
		case errors.Is(rerr, resilience.ErrTooLarge):
			corruptDiscarded.Add(r.stats, 1)
			return resilience.Permanent(fmt.Errorf("ruledist: digest %s: response exceeds %d bytes", id, r.cfg.MaxTransferBytes))
		case rerr != nil:
			return fmt.Errorf("ruledist: digest %s: read: %w", id, rerr)
		}
		var parsed digest
		if uerr := json.Unmarshal(res.Body, &parsed); uerr != nil {
			corruptDiscarded.Add(r.stats, 1)
			return fmt.Errorf("ruledist: digest %s: decode: %w", id, uerr)
		}
		d = parsed
		return nil
	})
	return d, notMod, err
}

// pull fetches the filtered snapshot for the wanted sites. The farm's
// snapshot codec is the corruption firewall: a truncated, garbled or
// too-new body fails DecodeSnapshot and the whole transfer is
// discarded — partial state never applies.
func (r *Replicator) pull(ctx context.Context, id, base string, sites []string) (farm.Snapshot, error) {
	var snap farm.Snapshot
	q := url.Values{"view": {"sync"}, "sites": {strings.Join(sites, ",")}}
	err := r.retry.Do(ctx, func(actx context.Context) error {
		req, rerr := http.NewRequestWithContext(actx, http.MethodGet, base+"/rulesz?"+q.Encode(), nil)
		if rerr != nil {
			return resilience.Permanent(fmt.Errorf("ruledist: pull %s: %w", id, rerr))
		}
		res, rerr := resilience.Call(r.client, req, r.cfg.MaxTransferBytes)
		switch {
		case res.Status == 0:
			return fmt.Errorf("ruledist: pull %s: %w", id, rerr)
		case res.Status != http.StatusOK:
			return fmt.Errorf("ruledist: pull %s: status %d", id, res.Status)
		case errors.Is(rerr, resilience.ErrTooLarge):
			corruptDiscarded.Add(r.stats, 1)
			return resilience.Permanent(fmt.Errorf("ruledist: pull %s: transfer exceeds %d bytes", id, r.cfg.MaxTransferBytes))
		case rerr != nil:
			return fmt.Errorf("ruledist: pull %s: read: %w", id, rerr)
		}
		s, derr := farm.DecodeSnapshot(res.Body)
		if derr != nil {
			corruptDiscarded.Add(r.stats, 1)
			return fmt.Errorf("ruledist: pull %s: discarded: %w", id, derr)
		}
		snap = s
		return nil
	})
	return snap, err
}

// apply merges a decoded peer snapshot into the farm under the version
// conflict rule. Tombstones first: a site whose rule and tombstone
// both traveled must see the eviction before the (then necessarily
// newer) rule.
func (r *Replicator) apply(g *govern.Guard, snap farm.Snapshot) (nrules, ntombs int) {
	for _, t := range snap.Tombstones {
		if g.Poll() != nil {
			break
		}
		if r.farm.ApplyTombstone(t) {
			ntombs++
			tombstonesApplied.Add(r.stats, 1)
		}
	}
	for _, sr := range snap.Rules {
		if g.Poll() != nil {
			break
		}
		if r.farm.ApplyRemote(sr) {
			nrules++
			rulesPulled.Add(r.stats, 1)
		} else {
			staleIgnored.Add(r.stats, 1)
		}
	}
	return nrules, ntombs
}

// peer is one sync target with its clockwise ring distance from self.
type peer struct {
	id   string
	url  string
	dist uint64
}

// peerOrder sorts the peers by clockwise FNV-64a ring distance from
// this node, so the first pulls hit the ring neighbors that donate or
// inherit this node's shards when the topology changes — the sites a
// joining node is about to own arrive before the long tail.
func (r *Replicator) peerOrder(g *govern.Guard) []peer {
	selfH := ringHash64(r.cfg.Self)
	out := make([]peer, 0, len(r.cfg.Peers))
	for id, u := range r.cfg.Peers {
		if g.Poll() != nil {
			break
		}
		if id == r.cfg.Self {
			continue
		}
		out = append(out, peer{id: id, url: strings.TrimRight(u, "/"), dist: ringHash64(id) - selfH})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	return out
}

// ringHash64 hashes a node id onto the distance ring (FNV-1a, like the
// cluster's routing ring); uint64 wraparound makes subtraction the
// clockwise distance.
func ringHash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// lastEtag returns the peer's last fully-processed digest etag.
func (r *Replicator) lastEtag(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.etags[id]
}

// setEtag caches a peer's digest etag once its round fully applied.
func (r *Replicator) setEtag(id, etag string) {
	if etag == "" {
		return
	}
	r.mu.Lock()
	r.etags[id] = etag
	r.mu.Unlock()
}
