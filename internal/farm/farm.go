// Package farm is the wrapper farm: the rule-cache-first serving layer
// in front of internal/rules that industrializes the paper's Table 17
// observation — once a site's rule (subtree path + separator) is
// learned, extraction can skip Phase 2 discovery entirely, an
// order-of-magnitude latency win on repeat-host traffic.
//
// The farm keeps compiled per-site rules in a sharded in-memory LRU.
// The first request for a host runs full discovery under a singleflight
// (N concurrent first requests trigger exactly one discovery; the rest
// wait and replay the learned rule); every later request takes the
// rule fast path. Learned rules are treated as first-class, versioned,
// revalidated artifacts rather than a transient cache: they persist in
// a JSON-on-disk store (atomic writes, survives restarts, loadable via
// the ominiserve -rules snapshot path), each relearn bumps the rule's
// version, and every SampleEvery-th fast-path hit is scored through
// wrapgen's drift detection, a drifted page queued for a background
// relearn, so a site redesign evicts and relearns the rule instead of
// serving silent garbage. Each rule's record schema (Wrapper) lives on
// the same cache entry, so the rule and the schema projected under it
// are one per-site artifact.
//
// Everything the farm does is observable: farm.* counters (hits,
// misses, learns, coalesced, stale, drift checks/detections, relearns,
// evictions, store saves), a fast-vs-slow-path latency histogram split
// (farm.path_seconds{path="fast"|"slow"}), and rule-count / store-size
// gauges — all on /metricsz, with a per-site view on GET /rulesz.
package farm

import (
	"context"
	"errors"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omini/internal/core"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/rules"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// Config tunes a Farm. The zero value is usable: paper-default
// extractor, 16 shards × 4096 total rules, drift sampling every 32nd
// hit, revalidation sweep every minute, no persistence.
type Config struct {
	// Extractor runs both paths; nil builds one with default options.
	Extractor *core.Extractor
	// Shards is the lock-stripe count of the rule cache (default 16).
	Shards int
	// Capacity caps the total cached rules across all shards
	// (default 4096); the least recently used rule is evicted first.
	Capacity int
	// SampleEvery drift-checks every Nth fast-path hit per site, on
	// the request that served it (default 32; negative disables
	// sampling).
	SampleEvery int
	// SampleQueue bounds the drifted pages waiting for the background
	// relearn (default 64); excess pages are dropped, never blocking the
	// serving path.
	SampleQueue int
	// DriftThreshold is the drift score past which a rule is evicted
	// and relearned (default wrapgen.DefaultDriftThreshold).
	DriftThreshold float64
	// RelearnInterval is the background sweep period: each sweep flags
	// every cached rule for revalidation on its next hit and flushes
	// the store if dirty (default 1m; negative disables the sweep).
	RelearnInterval time.Duration
	// StorePath persists the farm as a versioned snapshot: loaded at
	// New, saved by Run's sweeps and by Close. Empty disables
	// persistence.
	StorePath string
	// RecoverCorruptStore makes New treat an unreadable StorePath as an
	// empty store (logged) instead of failing; freshly learned rules
	// then overwrite the bad file on the next save. Servers set this —
	// a corrupt cache file should cost a cold start, not the process.
	RecoverCorruptStore bool
	// Stats receives the farm.* metrics; nil uses obs.Default.
	Stats *obs.Registry
	// Logger receives drift and store events; nil uses
	// obs.DefaultLogger().
	Logger *obs.Logger
}

const (
	defaultShards          = 16
	defaultCapacity        = 4096
	defaultSampleEvery     = 32
	defaultSampleQueue     = 64
	defaultRelearnInterval = time.Minute
)

// The pprof path labels of the fast and slow paths: every request
// runs under one of them while a profile is captured.
var (
	fastLabel = obs.Label{Key: "path", Value: "fast"}
	slowLabel = obs.Label{Key: "path", Value: "slow"}
)

// Outcome reports how one extraction was served.
type Outcome struct {
	// FromRule is true when the result came from cached-rule replay
	// (the fast path).
	FromRule bool
	// Learned is true when this request ran full discovery and stored
	// the resulting rule (a miss, or the singleflight leader).
	Learned bool
	// Relearned is true when a cached rule stopped matching and this
	// request rediscovered it (Learned is also true).
	Relearned bool
	// Coalesced is true when the request joined another request's
	// in-flight discovery instead of running its own.
	Coalesced bool
}

// sample is a served page that drifted past the threshold, queued for
// the background relearn: a copy of the page, since the request's own
// page is released once it is answered, and the version of the rule
// that served it.
type sample struct {
	site    string
	html    string
	version int
}

// flight is one in-progress discovery other requests for the same
// site can wait on.
type flight struct {
	done chan struct{}
	rule rules.Rule
	err  error
}

// errFlightAborted is a flight's error until its discovery returns, so
// the joiners of a leader that panics fall back to their own discovery.
var errFlightAborted = errors.New("farm: discovery aborted")

// Farm is the rule-cache-first serving layer. Create with New; Run
// drives background revalidation and store flushes; Close final-saves.
type Farm struct {
	cfg    Config
	ex     *core.Extractor
	stats  *obs.Registry
	log    *obs.Logger
	shards []*shard

	flightMu sync.Mutex
	flights  map[string]*flight

	samples chan sample

	// tombs remembers deliberately evicted rules (site → highest killed
	// version) so anti-entropy sync cannot resurrect them; see sync.go.
	tombMu sync.Mutex
	tombs  map[string]Tombstone

	dirty      atomic.Bool
	storeBytes atomic.Int64
	saveMu     sync.Mutex
}

// New returns a farm, seeded from Config.StorePath when the file
// exists. A missing store file is a fresh start, not an error; a
// corrupt or too-new one is an error (the caller decides whether to
// boot empty).
func New(cfg Config) (*Farm, error) {
	if cfg.Extractor == nil {
		cfg.Extractor = core.New(core.Options{})
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = defaultSampleEvery
	}
	if cfg.SampleQueue <= 0 {
		cfg.SampleQueue = defaultSampleQueue
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = wrapgen.DefaultDriftThreshold
	}
	if cfg.RelearnInterval == 0 {
		cfg.RelearnInterval = defaultRelearnInterval
	}
	if cfg.Stats == nil {
		cfg.Stats = obs.Default
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	f := &Farm{
		cfg:     cfg,
		ex:      cfg.Extractor,
		stats:   cfg.Stats,
		log:     cfg.Logger,
		flights: make(map[string]*flight),
		samples: make(chan sample, cfg.SampleQueue),
		tombs:   make(map[string]Tombstone),
	}
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	f.shards = make([]*shard, cfg.Shards)
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	for i := range f.shards {
		if err := g.Poll(); err != nil {
			break
		}
		f.shards[i] = newShard(perShard, func(string) {
			evictionCount.Add(f.stats, 1)
		})
	}
	rulesGauge.Bind(f.stats, func() float64 { return float64(f.Len()) })
	storeBytesGauge.Bind(f.stats, func() float64 { return float64(f.storeBytes.Load()) })
	tombstonesGauge.Bind(f.stats, func() float64 { return float64(f.TombstoneCount()) })
	if cfg.StorePath != "" {
		if err := f.seedFile(g, cfg.StorePath, true); err != nil {
			if !cfg.RecoverCorruptStore {
				return nil, err
			}
			f.log.Error("farm: rule store unreadable; starting empty",
				"path", cfg.StorePath, "err", err.Error())
		}
	}
	return f, nil
}

// SeedFile merges a snapshot file (versioned farm store or legacy
// rules array) into the cache — the ominiserve -rules boot path. The
// file must exist.
func (f *Farm) SeedFile(path string) error {
	return f.seedFile(govern.NewGuard(context.Background(), govern.Unlimited()), path, false)
}

// seedFile loads path and inserts its rules. With allowMissing, a
// nonexistent file seeds nothing.
func (f *Farm) seedFile(g *govern.Guard, path string, allowMissing bool) error {
	snap, err := LoadSnapshot(path)
	if err != nil {
		if allowMissing && errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	// Tombstones first: a snapshot is already reconciled (no site holds
	// both a rule and a tombstone), but insert consults the tombstone
	// set, so the order keeps the invariant obvious.
	for _, t := range snap.Tombstones {
		if err := g.Poll(); err != nil {
			return err
		}
		f.rememberTomb(t)
	}
	n := 0
	for _, r := range snap.Rules {
		if err := g.Poll(); err != nil {
			return err
		}
		f.insert(r.Rule, r.Signature, r.Hits, false)
		n++
	}
	f.log.Info("farm: rule store loaded", "path", path, "rules", n, "tombstones", len(snap.Tombstones))
	return nil
}

// Extract serves one page: rule fast path on a cache hit, singleflight
// learn-on-miss otherwise. A site-less request runs plain discovery
// and is never cached. The returned Outcome reports which path served.
// The result points into the page (see core.Page); what the farm keeps
// (the rule, its signature, a drifted page) it copies out.
func (f *Farm) Extract(ctx context.Context, site string, p *core.Page) (*core.Result, Outcome, error) {
	if site == "" {
		res, err := f.discover(ctx, p)
		return res, Outcome{}, err
	}
	if e := f.shardFor(site).get(site); e != nil {
		return f.serveFast(ctx, site, p, e)
	}
	return f.learnOrJoin(ctx, site, p)
}

// serveFast replays the cached rule. A mismatch (the site changed)
// evicts the rule and falls through to rediscovery, which parses the
// page again (the failed replay left no result); any other failure
// (resource limits, cancellation) propagates untouched.
func (f *Farm) serveFast(ctx context.Context, site string, p *core.Page, e *entry) (*core.Result, Outcome, error) {
	res, err := f.replayFast(ctx, p, e.rule)
	if err == nil {
		hitCount.Add(f.stats, 1)
		f.maybeSample(site, p, e, res)
		return res, Outcome{FromRule: true}, nil
	}
	if !errors.Is(err, core.ErrRuleMismatch) {
		return nil, Outcome{}, err
	}
	staleCount.Add(f.stats, 1)
	f.shardFor(site).remove(site)
	// The eviction is knowledge worth replicating: without a tombstone a
	// peer still holding this version would hand the dead rule straight
	// back on the next anti-entropy round.
	f.entomb(site, e.rule.Version)
	res, out, err := f.learnVersioned(ctx, site, p, e.rule.Version)
	if err == nil {
		relearnCount.Add(f.stats, 1)
		out.Relearned = true
	}
	return res, out, err
}

// learnOrJoin is the singleflight learn-on-miss: the first request for
// a site runs discovery; concurrent requests wait for its rule and
// replay it on their own page.
func (f *Farm) learnOrJoin(ctx context.Context, site string, p *core.Page) (*core.Result, Outcome, error) {
	f.flightMu.Lock()
	// A leader stores its rule before it retires its flight, so a miss
	// that finds no flight looks again: the leader may have finished
	// since the caller's lookup, and a second discovery would learn the
	// site twice.
	if e := f.shardFor(site).get(site); e != nil {
		f.flightMu.Unlock()
		return f.serveFast(ctx, site, p, e)
	}
	missCount.Add(f.stats, 1)
	if fl := f.flights[site]; fl != nil {
		f.flightMu.Unlock()
		return f.join(ctx, fl, site, p)
	}
	fl := &flight{done: make(chan struct{}), err: errFlightAborted}
	f.flights[site] = fl
	f.flightMu.Unlock()
	// The flight is retired however discovery ends, a panic included;
	// otherwise its joiners, and every later miss of the site, would
	// wait on it until their deadlines.
	defer func() {
		f.flightMu.Lock()
		delete(f.flights, site)
		f.flightMu.Unlock()
		close(fl.done)
	}()

	res, out, err := f.learnVersioned(ctx, site, p, 0)
	if err == nil {
		fl.rule = res.Rule(site)
		fl.rule.Version = 1
		// A tombstone may have pushed the stored version higher; joiners
		// replay whatever version actually landed in the cache.
		if cur, ok := f.Get(site); ok {
			fl.rule.Version = cur.Version
		}
	}
	fl.err = err
	return res, out, err
}

// join waits for an in-flight discovery of the same site, then replays
// the learned rule on this request's own page. If the leader failed or
// its rule does not fit this page, the request falls back to its own
// discovery (the herd has already dispersed), parsing its page again.
func (f *Farm) join(ctx context.Context, fl *flight, site string, p *core.Page) (*core.Result, Outcome, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, Outcome{}, ctx.Err()
	}
	coalescedCount.Add(f.stats, 1)
	if fl.err == nil {
		if res, err := f.replayFast(ctx, p, fl.rule); err == nil {
			hitCount.Add(f.stats, 1)
			return res, Outcome{FromRule: true, Coalesced: true}, nil
		}
	}
	res, out, err := f.learnVersioned(ctx, site, p, 0)
	out.Coalesced = true
	return res, out, err
}

// learnVersioned runs full discovery, stores the rule at
// prevVersion+1 (raised past any tombstone, so a fresh learn always
// supersedes a remembered eviction), and records slow-path latency.
func (f *Farm) learnVersioned(ctx context.Context, site string, p *core.Page, prevVersion int) (*core.Result, Outcome, error) {
	res, err := f.discover(ctx, p)
	if err != nil {
		return nil, Outcome{}, err
	}
	if tv := f.tombVersion(site); tv > prevVersion {
		prevVersion = tv
	}
	rule := res.Rule(site)
	rule.Version = prevVersion + 1
	var sig tagtree.Signature
	if res.Tree != nil {
		sig = tagtree.PathSignature(res.Tree)
	}
	f.insert(rule, sig, 0, false)
	learnCount.Add(f.stats, 1)
	f.dirty.Store(true)
	return res, Outcome{Learned: true, Relearned: prevVersion > 0}, nil
}

// replayFast runs one cached-rule replay under the "farm.fast" span and
// pprof path label. On success the span's wall time is the fast-path
// latency it records, with a trace exemplar when the request is traced.
func (f *Farm) replayFast(ctx context.Context, p *core.Page, rule rules.Rule) (*core.Result, error) {
	var res *core.Result
	var err error
	d := obs.Run(ctx, phaseFast, func(fctx context.Context) {
		obs.Labelled(fctx, fastLabel, func(pctx context.Context) {
			res, err = f.ex.ExtractPageWithRule(pctx, p, rule)
		})
	})
	if err != nil {
		return nil, err
	}
	obs.AnnotateTrace(ctx, "path", "fast")
	fastSeconds.ObserveExemplar(f.stats, d.Seconds(), obs.TraceIDFrom(ctx))
	return res, nil
}

// discover runs full Phase-2 discovery under the "farm.slow" span and
// pprof path label. On success the span's wall time is the slow-path
// latency it records, with a trace exemplar when the request is traced.
func (f *Farm) discover(ctx context.Context, p *core.Page) (*core.Result, error) {
	var res *core.Result
	var err error
	d := obs.Run(ctx, phaseSlow, func(sctx context.Context) {
		obs.Labelled(sctx, slowLabel, func(pctx context.Context) {
			res, err = f.ex.ExtractPage(pctx, p)
		})
	})
	if err != nil {
		return nil, err
	}
	obs.AnnotateTrace(ctx, "path", "slow")
	slowSeconds.ObserveExemplar(f.stats, d.Seconds(), obs.TraceIDFrom(ctx))
	return res, nil
}

// insert stores a rule (with its training signature) in the cache,
// reporting whether it was admitted. A tombstone at or above the
// rule's version keeps the site dead (the eviction is newer
// knowledge); a rule above the tombstone clears it. A cold rule enters
// as the least recently used (see shard.putCold).
func (f *Farm) insert(rule rules.Rule, sig tagtree.Signature, hits int64, cold bool) bool {
	if rule.Site == "" || !rule.Valid() {
		return false
	}
	if rule.Version <= 0 {
		rule.Version = 1
	}
	if !f.clearTomb(rule.Site, rule.Version) {
		return false
	}
	e := &entry{rule: rule, sig: sig}
	e.hits.count = hits
	if cold {
		f.shardFor(rule.Site).putCold(rule.Site, e)
	} else {
		f.shardFor(rule.Site).put(rule.Site, e)
	}
	return true
}

// Put stores an externally learned rule (e.g. from wrapper learning)
// with its training signature, marking the store dirty. An
// unversioned rule lands one past the current rule or tombstone
// version, whichever is higher.
func (f *Farm) Put(rule rules.Rule, sig tagtree.Signature) {
	if rule.Version <= 0 {
		prev := 0
		if cur, ok := f.Get(rule.Site); ok {
			prev = cur.Version
		}
		if tv := f.tombVersion(rule.Site); tv > prev {
			prev = tv
		}
		rule.Version = prev + 1
	}
	if f.insert(rule, sig, 0, false) {
		f.dirty.Store(true)
	}
}

// Get returns the cached rule for a site without bumping recency
// (an inspection read, not a serve).
func (f *Farm) Get(site string) (rules.Rule, bool) {
	if site == "" {
		return rules.Rule{}, false
	}
	e := f.shardFor(site).peek(site)
	if e == nil {
		return rules.Rule{}, false
	}
	return e.rule, true
}

// Wrapper returns the record wrapper for page p, which Extract just
// served as res: the field schema cached on the site's rule entry,
// learned on first use from res (wrapgen.LearnFromResult). A page whose
// structure drifted past the threshold from the rule's training page is
// relearned first, on the same page, so the wrapper never mis-projects
// a redesigned site; the result to project is then the relearned one,
// returned alongside the wrapper, and res is dead.
func (f *Farm) Wrapper(ctx context.Context, site string, p *core.Page, res *core.Result) (*wrapgen.Wrapper, *core.Result, error) {
	e := f.shardFor(site).peek(site)
	if e != nil && f.drifted(site, e, res) {
		relearned, err := f.relearn(ctx, site, p, e.rule.Version)
		if err != nil {
			return nil, nil, err
		}
		res, e = relearned, f.shardFor(site).peek(site)
	}
	// A schema is cached only on the entry whose rule produced res; if
	// the entry was evicted or replaced in between, the wrapper learned
	// here serves this request alone.
	cache := e != nil && e.rule.SubtreePath == res.SubtreePath && e.rule.Separator == res.Separator
	if cache {
		if w := e.wrapper.Load(); w != nil {
			return w, res, nil
		}
	}
	w, err := wrapgen.LearnFromResult(site, res)
	if err != nil {
		return nil, nil, err
	}
	if cache && !e.wrapper.CompareAndSwap(nil, w) {
		w = e.wrapper.Load() // a concurrent request learned it first
	}
	return w, res, nil
}

// Invalidate drops a site's cached rule, reporting whether one was
// cached. The eviction is entombed so replication cannot undo it.
func (f *Farm) Invalidate(site string) bool {
	cur, had := f.Get(site)
	removed := f.shardFor(site).remove(site)
	if removed {
		if had {
			f.entomb(site, cur.Version)
		}
		f.dirty.Store(true)
	}
	return removed
}

// Len returns the number of cached rules.
func (f *Farm) Len() int {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	n := 0
	for _, sh := range f.shards {
		if err := g.Poll(); err != nil {
			break
		}
		n += sh.len()
	}
	return n
}

// StoreBytes returns the encoded size of the last persisted snapshot
// (0 before the first save or without a store).
func (f *Farm) StoreBytes() int64 { return f.storeBytes.Load() }

// Rules snapshots every cached rule (with signature and hit count),
// sorted by site.
func (f *Farm) Rules() []StoredRule {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	out, _ := f.snapshotRules(g)
	return out
}

// snapshotRules collects and sorts the cache contents under the guard.
func (f *Farm) snapshotRules(g *govern.Guard) ([]StoredRule, error) {
	var out []StoredRule
	var err error
	for _, sh := range f.shards {
		if out, err = sh.snapshot(g, out); err != nil {
			return out, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out, nil
}

// maybeSample drift-checks a fast-path extraction on the request that
// served it: every SampleEvery-th hit of a site, plus any hit after a
// periodic sweep flagged the entry. A page past the threshold is copied
// and queued for the background relearn. Sampling never blocks serving:
// while the queue is full a sample is dropped (counted) before it is
// scored or copied, and only a sweep's claim is kept for the site's
// next hit; any other site is checked again on its next sampled hit.
func (f *Farm) maybeSample(site string, p *core.Page, e *entry, res *core.Result) {
	if len(e.sig) == 0 || res.Tree == nil {
		return
	}
	n, forced := e.hits.next()
	if !forced && (f.cfg.SampleEvery <= 0 || n%int64(f.cfg.SampleEvery) != 0) {
		return
	}
	if len(f.samples) == cap(f.samples) {
		f.dropSample(e, forced)
		return
	}
	if !f.drifted(site, e, res) {
		return
	}
	s := sample{site: site, html: strings.Clone(p.HTML()), version: e.rule.Version}
	select {
	case f.samples <- s:
	default:
		// Another request filled the queue since the check above.
		f.dropSample(e, forced)
	}
}

// dropSample counts a sample the full queue turned away; a sweep's
// claim on the entry is kept for its next hit.
func (f *Farm) dropSample(e *entry, forced bool) {
	samplesDropped.Add(f.stats, 1)
	if forced {
		e.hits.flag()
	}
}

// drifted scores a page extracted under e's rule against the rule's
// training signature, reporting whether it drifted past the threshold.
func (f *Farm) drifted(site string, e *entry, res *core.Result) bool {
	driftChecks.Add(f.stats, 1)
	drift := wrapgen.DriftScore(e.sig, res.Tree)
	if drift <= f.cfg.DriftThreshold {
		return false
	}
	driftDetected.Add(f.stats, 1)
	f.log.Warn("farm: layout drift detected; relearning",
		"site", site, "drift", drift, "ruleVersion", e.rule.Version)
	return true
}

// Revalidate synchronously relearns every queued drifted page and
// returns how many it handled. Run calls it continuously; tests call
// it directly for deterministic drift handling.
func (f *Farm) Revalidate(ctx context.Context) int {
	g := govern.NewGuard(ctx, govern.Unlimited())
	n := 0
	for {
		if err := g.Poll(); err != nil {
			return n
		}
		select {
		case s := <-f.samples:
			_, _ = f.relearn(ctx, s.site, core.NewPage(s.html), s.version)
			n++
		default:
			return n
		}
	}
}

// relearn evicts the drifted rule at version and relearns the site
// from page p, version bumped, returning the relearned result.
func (f *Farm) relearn(ctx context.Context, site string, p *core.Page, version int) (*core.Result, error) {
	f.shardFor(site).remove(site)
	// Drift-evicted rules propagate as tombstones: a peer that has not
	// seen the redesign yet must not hand the dead rule back.
	f.entomb(site, version)
	res, _, err := f.learnVersioned(ctx, site, p, version)
	if err != nil {
		relearnFailures.Add(f.stats, 1)
		f.log.Error("farm: relearn after drift failed", "site", site, "err", err.Error())
		return nil, err
	}
	relearnCount.Add(f.stats, 1)
	return res, nil
}

// Run drives the farm's background work until ctx is cancelled:
// relearning the queued drifted pages as they arrive, and on every
// RelearnInterval tick flagging all cached rules for revalidation on
// their next hit and flushing the store if dirty. The final save runs
// on cancellation.
func (f *Farm) Run(ctx context.Context) error {
	interval := f.cfg.RelearnInterval
	if interval <= 0 {
		interval = time.Duration(1<<62 - 1) // sweep disabled; still drain samples
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	g := govern.NewGuard(ctx, govern.Unlimited())
	for {
		if err := g.Poll(); err != nil {
			break
		}
		select {
		case <-ctx.Done():
			// A failed save is logged and counted by saveIfDirty; the
			// store stays dirty for Close to retry.
			_ = f.saveIfDirty()
			return ctx.Err()
		case s := <-f.samples:
			_, _ = f.relearn(ctx, s.site, core.NewPage(s.html), s.version)
		case <-ticker.C:
			_ = f.sweep(g)
			_ = f.saveIfDirty()
		}
	}
	_ = f.saveIfDirty()
	return ctx.Err()
}

// sweep flags every cached rule for drift revalidation on its next
// hit — the RelearnInterval contract: under traffic, every rule is
// rechecked at least once per interval.
func (f *Farm) sweep(g *govern.Guard) error {
	for _, sh := range f.shards {
		if err := sh.flagAll(g); err != nil {
			return err
		}
	}
	return nil
}

// saveIfDirty persists the store when something changed since the
// last save. It holds saveMu across the dirty check, so a caller that
// finds the store clean knows no save of it is still in flight. A
// failed save is logged, counted, and left dirty for the next attempt.
func (f *Farm) saveIfDirty() error {
	if f.cfg.StorePath == "" {
		return nil
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	if !f.dirty.Swap(false) {
		return nil
	}
	if err := f.save(); err != nil {
		f.dirty.Store(true)
		storeErrors.Add(f.stats, 1)
		f.log.Error("farm: rule store save failed", "path", f.cfg.StorePath, "err", err.Error())
		return err
	}
	return nil
}

// Save persists the cache as a versioned snapshot at Config.StorePath
// (no-op without one). Saves are serialized; concurrent mutation
// between snapshot and write is safe because writes are atomic.
func (f *Farm) Save() error {
	if f.cfg.StorePath == "" {
		return nil
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	return f.save()
}

// save writes the snapshot. The caller holds saveMu.
func (f *Farm) save() error {
	list, err := f.snapshotRules(govern.NewGuard(context.Background(), govern.Unlimited()))
	if err != nil {
		return err
	}
	n, err := SaveSnapshot(f.cfg.StorePath, Snapshot{
		Version:    SnapshotVersion,
		Rules:      list,
		Tombstones: f.Tombstones(),
	})
	if err != nil {
		return err
	}
	f.storeBytes.Store(n)
	storeSaves.Add(f.stats, 1)
	f.log.Info("farm: rule store saved", "path", f.cfg.StorePath, "rules", len(list), "bytes", n)
	return nil
}

// Close final-saves the store (when dirty), on the same path as Run's
// final save: when Run is saving concurrently, Close returns once that
// save has finished. The farm has no other resources to release; Run's
// goroutine stops with its context.
func (f *Farm) Close() error {
	return f.saveIfDirty()
}
