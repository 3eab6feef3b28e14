package separator

import (
	"cmp"
	"math"
	"slices"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// Stats is an index over the children of a chosen subtree, shared by
// every heuristic ranking the same subtree. Each distinct child tag has
// a dense index, assigned in order of first appearance, and the
// heuristics rank, pair and count on those indices: tag strings appear
// only in the rankings they return. Per index it holds the tag's count
// and occurrence positions; per child, a running
// content-size prefix (so SD's inter-occurrence distances are O(1)
// lookups) and the indices RP and SB pair. Build one with NewStats and
// hand it to each Heuristic's Rank to rank several heuristics without
// rescanning the subtree once per heuristic.
//
// The heuristics work in scratch space the Stats holds, so a Stats is
// not safe for concurrent use. The rankings they return stay valid.
type Stats struct {
	sub *tagtree.Node
	// g is the page's guard: heuristics ranking off the index charge
	// their per-candidate loops to it and stop when it trips.
	g *govern.Guard
	// tags holds every indexed tag: the k child tags first, in order of
	// first appearance, then the tags that only open a child (the first
	// thing inside it), which RP pairs but never ranks.
	tags []tagStat
	k    int
	// wide maps tag names to indices once there are more than scanLimit
	// of them, so a page of many distinct tags stays linear.
	wide map[string]int

	// prefix[i] is the total NodeSize of children[0:i]; the content
	// spanned from child a up to (not including) child b is
	// prefix[b]-prefix[a].
	prefix []int
	// ids[i] is the index of child i's tag, -1 for a content child, and
	// opens[i] the index of child i's first child when that is a tag,
	// else -1.
	ids, opens []int
	// work is the integer working memory the pair listings and the seen
	// sets share (see scratch): each heuristic reuses it.
	work []int
	// cands is the working list SD, HC and PP sort, one entry per child
	// tag at most.
	cands []cand
	// ranked is the arena the returned rankings are carved from.
	ranked []Ranked
}

// tagStat aggregates the per-tag candidate statistics shared by the
// heuristics: how many children of the subtree root carry the tag, the
// positions of all of them, and how many children it opens. Where it
// first appears is its index's order.
type tagStat struct {
	tag   string
	count int
	occ   []int
	opens int
}

// cand is one entry of a heuristic's working list: a tag index (PP: a
// trie node) and the keys it sorts by.
type cand struct {
	id    int
	score float64
	n     int
}

// scanLimit is how many indexed tags a lookup scans before the index
// switches to a map. The chosen subtrees of the corpus pages index at
// most 7 tags (4 of them child tags), so they never build it; a page
// of thousands of distinct tags needs it to stay linear.
const scanLimit = 32

// NewStats indexes the children of sub: one pass indexes each child's
// tag and counts it, and a second files its positions into one shared
// array and indexes the tags that open a child. The scans poll the
// guard's page context, so indexing a subtree with millions of
// children stops when the page is cancelled or out of time; a nil guard
// means unlimited, and then NewStats never fails.
func NewStats(sub *tagtree.Node, g *govern.Guard) (*Stats, error) {
	n := len(sub.Children)
	// One array: prefix, ids, opens and the occurrence windows.
	ints := make([]int, 4*n+1)
	st := &Stats{
		sub:    sub,
		g:      g,
		tags:   make([]tagStat, 0, min(n, 8)),
		prefix: ints[:n+1],
		ids:    ints[n+1 : 2*n+1],
		opens:  ints[2*n+1 : 3*n+1],
	}
	for i, c := range sub.Children {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		st.prefix[i+1] = st.prefix[i] + c.NodeSize()
		if c.IsContent() {
			st.ids[i] = -1
			continue
		}
		id := st.intern(c.Tag)
		st.tags[id].count++
		st.ids[i] = id
	}
	st.k = len(st.tags)
	// Every tag's occurrence list is a window of one backing array, sized
	// by the counts just taken.
	occ := ints[3*n+1 : 4*n+1]
	for id := range st.tags {
		st.g.Poll()
		s := &st.tags[id]
		s.occ, occ = occ[:0:s.count], occ[s.count:]
	}
	for i, c := range sub.Children {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		st.opens[i] = -1
		id := st.ids[i]
		if id < 0 {
			continue
		}
		st.tags[id].occ = append(st.tags[id].occ, i)
		if len(c.Children) > 0 && !c.Children[0].IsContent() {
			o := st.intern(c.Children[0].Tag)
			st.tags[o].opens++
			st.opens[i] = o
		}
	}
	return st, nil
}

// lookup returns the index of tag, and whether it is indexed at all.
func (st *Stats) lookup(tag string) (int, bool) {
	if st.wide != nil {
		id, ok := st.wide[tag]
		return id, ok
	}
	for id := range st.tags {
		st.g.Poll()
		if st.tags[id].tag == tag {
			return id, true
		}
	}
	return -1, false
}

// intern returns the index of tag, indexing it on first sight.
func (st *Stats) intern(tag string) int {
	if id, ok := st.lookup(tag); ok {
		return id
	}
	id := len(st.tags)
	st.tags = append(st.tags, tagStat{tag: tag})
	switch {
	case st.wide != nil:
		st.wide[tag] = id
	case len(st.tags) > scanLimit:
		st.wide = make(map[string]int, 2*len(st.tags))
		for i := range st.tags {
			st.g.Poll()
			st.wide[st.tags[i].tag] = i
		}
	}
	return id
}

// Len returns the number of distinct child tags: their indices are
// 0 to Len()-1.
func (st *Stats) Len() int { return st.k }

// Index returns the index of tag among the subtree's child tags, and
// whether it is one. Indices follow first appearance, so comparing two
// tags' indices compares where they first appear among the children —
// the tie-break combine.CombineLists uses.
func (st *Stats) Index(tag string) (int, bool) {
	id, ok := st.lookup(tag)
	return id, ok && id < st.k
}

// sigma is the population standard deviation of the content distances
// between consecutive occurrences of child tag id (Section 5.1), each
// distance read off the prefix sums. It sums in the order a slice of
// the distances would, so it matches the σ of that slice bit for bit.
func (st *Stats) sigma(id int) (float64, error) {
	pos := st.tags[id].occ
	gaps := len(pos) - 1
	mean := 0.0
	for i := 0; i < gaps; i++ {
		if err := st.g.Poll(); err != nil {
			return 0, err
		}
		mean += float64(st.prefix[pos[i+1]] - st.prefix[pos[i]])
	}
	mean /= float64(gaps)
	variance := 0.0
	for i := 0; i < gaps; i++ {
		st.g.Poll()
		d := float64(st.prefix[pos[i+1]]-st.prefix[pos[i]]) - mean
		variance += d * d
	}
	variance /= float64(gaps)
	return math.Sqrt(variance), nil
}

// arenaRankings is how many rankings of every child tag one block of
// the rankings' arena holds: one per Omini heuristic.
const arenaRankings = 5

// out returns an empty ranking with room for n entries, carved from
// the rankings' arena. No heuristic ranks a child tag twice, so a
// ranking needs at most Len() entries, and one block serves the five
// Omini heuristics unless the subtree has hundreds of distinct tags.
func (st *Stats) out(n int) []Ranked {
	if n > cap(st.ranked)-len(st.ranked) {
		st.ranked = make([]Ranked, 0, max(n, min(arenaRankings*st.k, 512)))
	}
	l := len(st.ranked)
	st.ranked = st.ranked[:l+n]
	return st.ranked[l : l : l+n]
}

// workList returns SD's, HC's and PP's empty working list.
func (st *Stats) workList() []cand {
	if st.cands == nil {
		st.cands = make([]cand, 0, st.k)
	}
	return st.cands[:0]
}

// scratch returns the integer working memory the pair listings and the
// seen sets share: 4 ints per child for a pair listing, then one per
// child tag for a seen set. It is allocated on first use, so a caller
// ranking only with SD, HC or PP pays nothing for it.
func (st *Stats) scratch() []int {
	if st.work == nil {
		st.work = make([]int, 4*len(st.ids)+st.k)
	}
	return st.work
}

// seen returns a cleared set of child tag indices, carved from the
// scratch behind the pair listings' 4 ints per child.
func (st *Stats) seen() []int {
	s := st.scratch()[4*len(st.ids):]
	clear(s)
	return s
}

// pair returns the tags RP and SB pair at occurrence s, by index: for
// s = 2i, child i-1 and child i; for s = 2i+1, child i and its first
// child.
func (st *Stats) pair(s int) (a, b int) {
	i := s >> 1
	if s&1 == 0 {
		return st.ids[i-1], st.ids[i]
	}
	return st.ids[i], st.opens[i]
}

// pairList reduces occs, occurrences in ascending order, to their
// distinct pairs, each given as its first occurrence s with cnt[s] its
// count. Occurrences are sorted by pair code, so the listing costs
// O(m log m) in the m occurrences whatever the number of distinct tags,
// where a table of every pair of tags would cost the square of that
// number.
func (st *Stats) pairList(occs, cnt []int) ([]int, error) {
	k := len(st.tags)
	code := func(s int) int {
		a, b := st.pair(s)
		return a*k + b
	}
	slices.SortFunc(occs, func(x, y int) int {
		if c := cmp.Compare(code(x), code(y)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	d := 0
	for i := 0; i < len(occs); {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		j, c := i+1, code(occs[i])
		for j < len(occs) && code(occs[j]) == c {
			st.g.Poll()
			j++
		}
		cnt[occs[i]] = j - i
		occs[d] = occs[i]
		d++
		i = j
	}
	return occs[:d], nil
}
