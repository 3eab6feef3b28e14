package separator

import (
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// Stats is an index over the children of a chosen subtree, shared by
// every heuristic ranking the same subtree: per-tag counts and first
// appearances, a running content-size prefix over the children (so SD's
// inter-occurrence distances become O(1) lookups), per-tag occurrence
// positions, and lazily cached pair/path listings for RP, SB and PP. Build
// one with NewStats and hand it to each Heuristic's Rank to rank several
// heuristics without rescanning the subtree once per heuristic.
type Stats struct {
	sub *tagtree.Node
	// g is the page's guard: heuristics ranking off the index charge
	// their per-candidate loops to it, and combine.Combine checks it
	// between heuristics.
	g    *govern.Guard
	tags map[string]tagStat
	// prefix[i] is the total NodeSize of children[0:i]; the content spanned
	// from child a up to (not including) child b is prefix[b]-prefix[a].
	prefix []int

	// The pair listings and the partial-path trie are built on first use.
	rpPairs []RPPair
	rpDone  bool
	sbPairs []SBPair
	sbDone  bool
	ppTrie  tagtree.PathTrie
	ppErr   error
	ppDone  bool
}

// NewStats indexes the children of sub: one pass counts each tag, and a
// second files its positions into one shared array. The scans poll the
// guard's page context, so indexing a subtree with millions of
// children stops when the page is cancelled or out of time; a nil guard
// means unlimited, and then NewStats never fails.
func NewStats(sub *tagtree.Node, g *govern.Guard) (*Stats, error) {
	st := &Stats{
		sub:    sub,
		g:      g,
		tags:   make(map[string]tagStat),
		prefix: make([]int, len(sub.Children)+1),
	}
	for i, c := range sub.Children {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		st.prefix[i+1] = st.prefix[i] + c.NodeSize()
		if c.IsContent() {
			continue
		}
		s, ok := st.tags[c.Tag]
		if !ok {
			s.first = i
		}
		s.count++
		st.tags[c.Tag] = s
	}
	// Every tag's occurrence list is a window of one backing array, sized
	// by the counts just taken.
	occ := make([]int, len(sub.Children))
	for tag, s := range st.tags {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		s.occ, occ = occ[:0:s.count], occ[s.count:]
		st.tags[tag] = s
	}
	for i, c := range sub.Children {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		if c.IsContent() {
			continue
		}
		s := st.tags[c.Tag]
		s.occ = append(s.occ, i)
		st.tags[c.Tag] = s
	}
	return st, nil
}

// FirstIndex returns the index of tag's first appearance among the
// subtree's children, and whether tag is a child tag at all — the
// tie-break combine.CombineLists uses.
func (st *Stats) FirstIndex(tag string) (int, bool) {
	s, ok := st.tags[tag]
	return s.first, ok
}

// gaps returns the content distances between consecutive occurrences of tag
// among the subtree's children (Section 5.1), each gap read off the prefix
// sums instead of re-accumulating child sizes.
func (st *Stats) gaps(tag string) []float64 {
	pos := st.tags[tag].occ
	if len(pos) < 2 {
		return nil
	}
	out := make([]float64, len(pos)-1)
	for i := range out {
		st.g.Poll()
		out[i] = float64(st.prefix[pos[i+1]] - st.prefix[pos[i]])
	}
	return out
}

// rp returns the cached RP pair listing, computing it on first use.
func (st *Stats) rp() []RPPair {
	if !st.rpDone {
		st.rpPairs = RPPairs(st.sub)
		st.rpDone = true
	}
	return st.rpPairs
}

// sb returns the cached SB pair listing, computing it on first use.
func (st *Stats) sb() []SBPair {
	if !st.sbDone {
		st.sbPairs = SBPairs(st.sub)
		st.sbDone = true
	}
	return st.sbPairs
}

// pp returns the cached partial-path trie over the subtree's children,
// building it on first use under the page's guard.
func (st *Stats) pp() (*tagtree.PathTrie, error) {
	if !st.ppDone {
		st.ppTrie, st.ppErr = tagtree.BuildPathTrie(st.sub.Children, st.g)
		st.ppDone = true
	}
	return &st.ppTrie, st.ppErr
}
