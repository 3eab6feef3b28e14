package farm

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"omini/internal/govern"
	"omini/internal/rules"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// entry is one cached, compiled per-site rule: the replayable rule
// itself plus the training-page signature the drift sampler compares
// live pages against. Hit counts and the revalidation flag are atomic
// so the fast path never takes a shard lock twice.
type entry struct {
	rule rules.Rule
	sig  tagtree.Signature

	hits needsCheckCounter

	// wrapper is the site's record schema (see Farm.Wrapper), learned
	// lazily from the first result projected under this rule. It is
	// neither persisted nor replicated: every insert builds a fresh
	// entry, so a relearn, eviction or peer overwrite drops it with
	// the rule it was learned under.
	wrapper atomic.Pointer[wrapgen.Wrapper]
}

// needsCheckCounter bundles the per-entry sampling state. Kept as its
// own struct so entry copies in snapshots can drop it explicitly.
type needsCheckCounter struct {
	mu         sync.Mutex
	count      int64
	needsCheck bool
}

// next advances the hit count and reports (count, forced): forced is
// true when a periodic revalidation sweep flagged this entry since the
// last sample.
func (c *needsCheckCounter) next() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	forced := c.needsCheck
	c.needsCheck = false
	return c.count, forced
}

// load returns the current hit count.
func (c *needsCheckCounter) load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// flag marks the entry for revalidation on its next hit.
func (c *needsCheckCounter) flag() {
	c.mu.Lock()
	c.needsCheck = true
	c.mu.Unlock()
}

// shard is one lock-striped slice of the rule cache: an LRU list plus
// a site index. The farm routes each site to one shard by hash, so
// concurrent traffic for distinct hosts rarely contends on a lock.
type shard struct {
	mu      sync.Mutex
	cap     int
	index   map[string]*list.Element // site → element holding *lruItem
	order   *list.List               // front = most recently used
	evicted func(site string)        // capacity-eviction callback (metrics)
}

// lruItem is the list payload: the site key plus its entry.
type lruItem struct {
	site  string
	entry *entry
}

func newShard(capacity int, evicted func(string)) *shard {
	return &shard{
		cap:     capacity,
		index:   make(map[string]*list.Element),
		order:   list.New(),
		evicted: evicted,
	}
}

// get returns the site's entry and bumps its recency, or nil.
func (s *shard) get(site string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[site]
	if !ok {
		return nil
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruItem).entry
}

// peek returns the site's entry without bumping its recency, or nil.
func (s *shard) peek(site string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[site]
	if !ok {
		return nil
	}
	return el.Value.(*lruItem).entry
}

// put inserts or replaces the site's entry, evicting the least
// recently used entry when the shard is over capacity.
func (s *shard) put(site string, e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[site]; ok {
		el.Value.(*lruItem).entry = e
		s.order.MoveToFront(el)
		return
	}
	s.index[site] = s.order.PushFront(&lruItem{site: site, entry: e})
	if s.cap > 0 && s.order.Len() > s.cap {
		s.evictOldestLocked()
	}
}

// putCold inserts the site's entry as the least recently used one. A
// full shard gives up only its coldest entry, so a burst of cold
// inserts larger than the shard churns that one slot and never
// displaces the entries being served. An existing entry is replaced
// in place and keeps its recency.
func (s *shard) putCold(site string, e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[site]; ok {
		el.Value.(*lruItem).entry = e
		return
	}
	if s.cap > 0 && s.order.Len() >= s.cap {
		s.evictOldestLocked()
	}
	s.index[site] = s.order.PushBack(&lruItem{site: site, entry: e})
}

// evictOldestLocked drops the least recently used entry; s.mu is held.
func (s *shard) evictOldestLocked() {
	oldest := s.order.Back()
	if oldest == nil {
		return
	}
	item := oldest.Value.(*lruItem)
	s.order.Remove(oldest)
	delete(s.index, item.site)
	if s.evicted != nil {
		s.evicted(item.site)
	}
}

// remove drops the site's entry if present, reporting whether it was.
func (s *shard) remove(site string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[site]
	if !ok {
		return false
	}
	s.order.Remove(el)
	delete(s.index, site)
	return true
}

// len returns the shard's entry count.
func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// snapshot appends a copy of every (site, rule, signature, hits)
// triple to dst, charging the guard per entry.
func (s *shard) snapshot(g *govern.Guard, dst []StoredRule) ([]StoredRule, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.order.Front(); el != nil; el = el.Next() {
		if err := g.Poll(); err != nil {
			return dst, err
		}
		item := el.Value.(*lruItem)
		dst = append(dst, StoredRule{
			Rule:      item.entry.rule,
			Signature: item.entry.sig,
			Hits:      item.entry.hits.load(),
		})
	}
	return dst, nil
}

// flagAll marks every entry for revalidation on its next hit, charging
// the guard per entry.
func (s *shard) flagAll(g *govern.Guard) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.order.Front(); el != nil; el = el.Next() {
		if err := g.Poll(); err != nil {
			return err
		}
		el.Value.(*lruItem).entry.hits.flag()
	}
	return nil
}

// shardFor hashes a site onto its shard (FNV-1a, like the cluster
// ring, so the distribution is stable across restarts).
func (f *Farm) shardFor(site string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(site))
	return f.shards[h.Sum32()%uint32(len(f.shards))]
}
