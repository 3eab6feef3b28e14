package separator

import (
	"cmp"
	"slices"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// rpMinPairCount is the occurrence threshold below which RP declines to
// answer (Section 6.5: "both RP and IPS reject tags that occur below a
// given threshold").
const rpMinPairCount = 2

// rp is the Repeating Pattern heuristic of Section 5.2 (adopted from Embley
// et al.): a single tag may mean many things, but a pattern of two tags with
// no text between them is likelier to mean one thing.
//
// The pattern sequence is built at the boundary level of the chosen
// subtree, which is what reproduces the paper's Table 3: every tag child
// contributes its own tag, followed by its opening pattern — the first tag
// inside it when no text intervenes (each <table><tr> result row yields a
// (table,tr) pair). A childless element (an <img>, <br>, or empty <map>)
// additionally pairs with the next sibling tag, since nothing at all stands
// between them. Pairs are ranked by descending count and ascending
// |pairCount − min(count(a), count(b))|; candidate tags inherit the order
// of the pairs they open.
type rp struct{}

// RP returns the repeating pattern heuristic.
func RP() Heuristic { return rp{} }

func (rp) Name() string { return "RP" }

func (rp) Letter() byte { return 'R' }

// TagPair is an ordered pair of tags with no text (or content of any kind)
// between them.
type TagPair struct {
	First, Second string
}

// RPPair is one row of the repeating-pattern pair ranking (Table 3).
type RPPair struct {
	Pair TagPair
	// Count is the number of occurrences of the pair.
	Count int
	// Diff is |Count − min(count(First), count(Second))|.
	Diff int
}

func (rp) Rank(st *Stats) ([]Ranked, error) {
	pairs, cnt, err := st.rpList()
	if err != nil {
		return nil, err
	}
	seen := st.seen()
	out := st.out(min(st.k, len(pairs)))
	for _, s := range pairs {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		// The first tag of every pair is a child tag.
		a, _ := st.pair(s)
		if cnt[s] < rpMinPairCount || seen[a] != 0 {
			continue
		}
		seen[a] = 1
		out = append(out, Ranked{Tag: st.tags[a].tag, Score: float64(cnt[s])})
	}
	return out, nil
}

// RPPairs computes the full pair ranking of Section 5.2 over the subtree's
// boundary patterns, in the Table 3 listing order: descending pair count,
// ascending difference, then first appearance. The scans poll the guard;
// a nil guard means unlimited.
func RPPairs(sub *tagtree.Node, g *govern.Guard) ([]RPPair, error) {
	st, err := NewStats(sub, g)
	if err != nil {
		return nil, err
	}
	pairs, cnt, err := st.rpList()
	if err != nil {
		return nil, err
	}
	out := make([]RPPair, len(pairs))
	for i, s := range pairs {
		a, b := st.pair(s)
		out[i] = RPPair{Pair: TagPair{First: st.tags[a].tag, Second: st.tags[b].tag}, Count: cnt[s], Diff: st.rpDiff(s, cnt[s])}
	}
	return out, nil
}

// rpList lists RP's distinct pairs in the Table 3 order, each as its
// first occurrence s (see pair) with cnt[s] its count. A tag child
// pairs with a childless tag right before it (s = 2i) and with its own
// first child when that is a tag (s = 2i+1), in that order.
func (st *Stats) rpList() (pairs, cnt []int, err error) {
	n := len(st.ids)
	work := st.scratch()
	occs, cnt := work[:0:2*n], work[2*n:4*n]
	for i := range st.ids {
		if err := st.g.Poll(); err != nil {
			return nil, nil, err
		}
		if st.ids[i] < 0 {
			continue
		}
		if i > 0 && st.ids[i-1] >= 0 && len(st.sub.Children[i-1].Children) == 0 {
			occs = append(occs, 2*i)
		}
		if st.opens[i] >= 0 {
			occs = append(occs, 2*i+1)
		}
	}
	if pairs, err = st.pairList(occs, cnt); err != nil {
		return nil, nil, err
	}
	slices.SortFunc(pairs, func(x, y int) int {
		if c := cmp.Compare(cnt[y], cnt[x]); c != 0 {
			return c
		}
		if c := cmp.Compare(st.rpDiff(x, cnt[x]), st.rpDiff(y, cnt[y])); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return pairs, cnt, nil
}

// rpDiff is |count − min(count(a), count(b))| for the pair at s, a
// tag's count being how often it stands as a child or opens one.
func (st *Stats) rpDiff(s, count int) int {
	a, b := st.pair(s)
	ta, tb := &st.tags[a], &st.tags[b]
	diff := count - min(ta.count+ta.opens, tb.count+tb.opens)
	if diff < 0 {
		diff = -diff
	}
	return diff
}
