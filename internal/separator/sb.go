package separator

import (
	"cmp"
	"slices"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// sb is the Sibling Tag heuristic of Section 5.4, introduced by Omini: count
// pairs of immediately adjacent sibling tags among the children of the
// minimal subtree and rank the pairs by descending occurrence count, ties by
// order of first appearance in the document. The first tag of the best pair
// is the separator — repetition of a *pattern* of siblings ((hr,pre) twenty
// times on the Library of Congress page, (table,table) eleven times on
// canoe.com) is stronger evidence than a high count of a single tag that may
// appear irregularly.
type sb struct{}

// SB returns the sibling tag heuristic.
func SB() Heuristic { return sb{} }

func (sb) Name() string { return "SB" }

func (sb) Letter() byte { return 'B' }

// SBPair is one row of the sibling-pair ranking (Table 6).
type SBPair struct {
	Pair  TagPair
	Count int
}

func (sb) Rank(st *Stats) ([]Ranked, error) {
	pairs, cnt, err := st.sbList()
	if err != nil {
		return nil, err
	}
	seen := st.seen()
	out := st.out(min(st.k, len(pairs)))
	for _, s := range pairs {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		a, _ := st.pair(s)
		if seen[a] != 0 {
			continue
		}
		seen[a] = 1
		out = append(out, Ranked{Tag: st.tags[a].tag, Score: float64(cnt[s])})
	}
	return out, nil
}

// SBPairs computes the sibling-pair ranking of Section 5.4: every adjacent
// pair among the tag children of the subtree root, ranked descending by
// count with ties broken by first appearance. Text between two siblings
// breaks their immediacy (a "a | a | a" link row yields no pairs); a tag's
// own content lives inside it and does not. The scans poll the guard; a
// nil guard means unlimited.
func SBPairs(sub *tagtree.Node, g *govern.Guard) ([]SBPair, error) {
	st, err := NewStats(sub, g)
	if err != nil {
		return nil, err
	}
	pairs, cnt, err := st.sbList()
	if err != nil {
		return nil, err
	}
	out := make([]SBPair, len(pairs))
	for i, s := range pairs {
		a, b := st.pair(s)
		out[i] = SBPair{Pair: TagPair{First: st.tags[a].tag, Second: st.tags[b].tag}, Count: cnt[s]}
	}
	return out, nil
}

// sbList lists SB's distinct pairs in the Table 6 order, each as its
// first occurrence s = 2i (child i-1 and child i, see pair) with cnt[s]
// its count.
func (st *Stats) sbList() (pairs, cnt []int, err error) {
	n := len(st.ids)
	work := st.scratch()
	occs, cnt := work[:0:2*n], work[2*n:4*n]
	for i := 1; i < n; i++ {
		if err := st.g.Poll(); err != nil {
			return nil, nil, err
		}
		if st.ids[i-1] >= 0 && st.ids[i] >= 0 {
			occs = append(occs, 2*i)
		}
	}
	if pairs, err = st.pairList(occs, cnt); err != nil {
		return nil, nil, err
	}
	slices.SortFunc(pairs, func(x, y int) int {
		if c := cmp.Compare(cnt[y], cnt[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return pairs, cnt, nil
}
