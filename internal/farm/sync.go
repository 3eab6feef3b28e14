package farm

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"omini/internal/govern"
)

// The farm's replication surface: what internal/ruledist (and the
// /rulesz digest/sync views in internal/serve) use to keep learned
// rules warm across the cluster. The conflict rule is deliberately
// simple — per site, the highest version wins, whether that version
// lives in a rule or in a tombstone — so any two nodes that exchange
// state converge without coordination.

// maxTombstones bounds the remembered-eviction set; past it the oldest
// tombstones are dropped. A dropped tombstone only weakens the
// no-resurrection guarantee for a site nobody has touched in a long
// time, and the drift revalidator would re-kill a resurrected rule on
// its next sampled hit anyway.
const maxTombstones = 1024

// rememberTomb records t when it is newer than any existing tombstone
// for its site, reporting whether it was recorded.
func (f *Farm) rememberTomb(t Tombstone) bool {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	if prev, ok := f.tombs[t.Site]; ok && prev.Version >= t.Version {
		return false
	}
	f.tombs[t.Site] = t
	f.pruneTombsLocked()
	return true
}

// entomb marks a deliberate eviction (drift, fast-path mismatch,
// explicit invalidation) so neither a stale anti-entropy peer nor a
// lagging snapshot can resurrect the dead rule at or below the killed
// version. A later relearn lands above the tombstone and clears it.
func (f *Farm) entomb(site string, version int) {
	if site == "" || version <= 0 {
		return
	}
	if f.rememberTomb(Tombstone{Site: site, Version: version, EvictedAt: time.Now().UTC()}) {
		f.dirty.Store(true)
	}
}

// tombVersion returns the site's tombstone version (0 when none).
func (f *Farm) tombVersion(site string) int {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	return f.tombs[site].Version
}

// clearTomb reports whether a rule at version may live: a tombstone at
// or above it says no; a lower tombstone is superseded and removed.
func (f *Farm) clearTomb(site string, version int) bool {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	t, ok := f.tombs[site]
	if !ok {
		return true
	}
	if t.Version >= version {
		return false
	}
	delete(f.tombs, site)
	return true
}

// pruneTombsLocked evicts the oldest tombstones past maxTombstones.
// Callers hold tombMu.
func (f *Farm) pruneTombsLocked() {
	for len(f.tombs) > maxTombstones {
		oldestSite := ""
		var oldest time.Time
		for site, t := range f.tombs {
			if oldestSite == "" || t.EvictedAt.Before(oldest) {
				oldestSite, oldest = site, t.EvictedAt
			}
		}
		delete(f.tombs, oldestSite)
	}
}

// TombstoneCount returns the number of remembered evictions.
func (f *Farm) TombstoneCount() int {
	f.tombMu.Lock()
	defer f.tombMu.Unlock()
	return len(f.tombs)
}

// Tombstones snapshots the remembered evictions, sorted by site.
func (f *Farm) Tombstones() []Tombstone {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	f.tombMu.Lock()
	out := make([]Tombstone, 0, len(f.tombs))
	for _, t := range f.tombs {
		if g.Poll() != nil {
			break
		}
		out = append(out, t)
	}
	f.tombMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// ApplyRemote merges one peer rule under the version conflict rule: it
// is applied only when strictly newer than both the local rule and any
// local tombstone for the site. Applied rules do not count as learns —
// that is the whole point of replication — but they do mark the store
// dirty so the next sweep persists them. They enter the cache as least
// recently used, so an anti-entropy round that pulls more rules than a
// shard holds cannot evict the rules this node is serving (which it
// would then relearn from whatever page came next). Reports whether it
// applied.
func (f *Farm) ApplyRemote(sr StoredRule) bool {
	if sr.Site == "" || !sr.Valid() {
		return false
	}
	if sr.Version <= 0 {
		sr.Version = 1
	}
	if cur, ok := f.Get(sr.Site); ok && cur.Version >= sr.Version {
		return false
	}
	if !f.insert(sr.Rule, sr.Signature, sr.Hits, true) {
		return false
	}
	f.dirty.Store(true)
	return true
}

// ApplyTombstone merges one peer eviction: the local copy of the rule
// is dropped when its version is at or below the tombstone's, and the
// tombstone is remembered so later syncs cannot bring the rule back.
// A local rule above the tombstone's version has already superseded
// the eviction and wins. Reports whether anything changed.
func (f *Farm) ApplyTombstone(t Tombstone) bool {
	if t.Site == "" || t.Version <= 0 {
		return false
	}
	if cur, ok := f.Get(t.Site); ok && cur.Version > t.Version {
		return false
	}
	if !f.rememberTomb(t) {
		return false
	}
	f.shardFor(t.Site).remove(t.Site)
	f.dirty.Store(true)
	return true
}

// VersionVector returns the farm's per-site rule and tombstone
// versions — the digest two nodes exchange to find divergence without
// shipping rule bodies.
func (f *Farm) VersionVector() (ruleV, tombV map[string]int) {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	list, _ := f.snapshotRules(g)
	ruleV = make(map[string]int, len(list))
	for _, r := range list {
		if g.Poll() != nil {
			break
		}
		ruleV[r.Site] = r.Version
	}
	tombs := f.Tombstones()
	tombV = make(map[string]int, len(tombs))
	for _, t := range tombs {
		if g.Poll() != nil {
			break
		}
		tombV[t.Site] = t.Version
	}
	return ruleV, tombV
}

// Etag is a strong hash of the farm's version vector: equal etags mean
// two nodes hold identical (site, version) sets for rules and
// tombstones alike, so an If-None-Match digest poll answers 304
// without walking rule bodies. FNV-64a over the sorted vector.
func (f *Farm) Etag() string {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	ruleV, tombV := f.VersionVector()
	h := fnv.New64a()
	for _, site := range sortedKeys(g, ruleV) {
		if g.Poll() != nil {
			break
		}
		fmt.Fprintf(h, "r %s=%d\n", site, ruleV[site])
	}
	for _, site := range sortedKeys(g, tombV) {
		if g.Poll() != nil {
			break
		}
		fmt.Fprintf(h, "t %s=%d\n", site, tombV[site])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sortedKeys returns m's keys in sorted order, charging the guard.
func sortedKeys(g *govern.Guard, m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if g.Poll() != nil {
			break
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SyncSnapshot assembles the farm's state as a canonical wire snapshot
// for a peer pull. An empty sites filter ships everything; otherwise
// only the named sites' rules and tombstones are included (the joining
// node asks only for the shards it now owns).
func (f *Farm) SyncSnapshot(sites []string) Snapshot {
	g := govern.NewGuard(context.Background(), govern.Unlimited())
	list, _ := f.snapshotRules(g)
	tombs := f.Tombstones()
	if len(sites) > 0 {
		want := make(map[string]bool, len(sites))
		for _, s := range sites {
			if g.Poll() != nil {
				break
			}
			want[s] = true
		}
		fr := list[:0]
		for _, r := range list {
			if g.Poll() != nil {
				break
			}
			if want[r.Site] {
				fr = append(fr, r)
			}
		}
		list = fr
		ft := tombs[:0]
		for _, t := range tombs {
			if g.Poll() != nil {
				break
			}
			if want[t.Site] {
				ft = append(ft, t)
			}
		}
		tombs = ft
	}
	return Snapshot{Version: SnapshotVersion, Rules: list, Tombstones: tombs}
}
