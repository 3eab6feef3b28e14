package separator

import (
	"cmp"
	"slices"

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

func (rp) Rank(st *Stats) []Ranked {
	pairs := st.rp()
	stats := st.tags
	var out []Ranked
	seen := make(map[string]bool)
	for _, p := range pairs {
		st.g.Poll()
		if p.Count < rpMinPairCount {
			continue
		}
		tag := p.Pair.First
		if _, isChild := stats[tag]; !isChild || seen[tag] {
			continue
		}
		seen[tag] = true
		out = append(out, Ranked{Tag: tag, Score: float64(p.Count)})
	}
	return out
}

// RPPairs computes the full pair ranking of Section 5.2 over the subtree's
// boundary patterns, in the Table 3 listing order: descending pair count,
// ascending difference, then first appearance.
func RPPairs(sub *tagtree.Node) []RPPair {
	var (
		pairCount = make(map[TagPair]int)
		tagCount  = make(map[string]int)
		firstSeen = make(map[TagPair]int)
		seq       int
	)
	addPair := func(a, b string) {
		p := TagPair{First: a, Second: b}
		if pairCount[p] == 0 {
			firstSeen[p] = seq
		}
		pairCount[p]++
		seq++
	}

	// prevEmpty holds the tag of the preceding childless sibling, if the
	// gap to the current child is content-free.
	prevEmpty := ""
	for _, c := range sub.Children {
		if c.IsContent() {
			prevEmpty = ""
			continue
		}
		tagCount[c.Tag]++
		if prevEmpty != "" {
			addPair(prevEmpty, c.Tag)
		}
		// Opening pattern: the first thing inside the child, when it is a
		// tag (text first means no clean pattern).
		if len(c.Children) > 0 {
			if g := c.Children[0]; !g.IsContent() {
				tagCount[g.Tag]++
				addPair(c.Tag, g.Tag)
			}
			prevEmpty = ""
			continue
		}
		prevEmpty = c.Tag
	}

	out := make([]RPPair, 0, len(pairCount))
	for p, c := range pairCount {
		minTag := tagCount[p.First]
		if tc := tagCount[p.Second]; tc < minTag {
			minTag = tc
		}
		diff := c - minTag
		if diff < 0 {
			diff = -diff
		}
		out = append(out, RPPair{Pair: p, Count: c, Diff: diff})
	}
	slices.SortFunc(out, func(a, b RPPair) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		if a.Diff != b.Diff {
			return cmp.Compare(a.Diff, b.Diff)
		}
		return cmp.Compare(firstSeen[a.Pair], firstSeen[b.Pair])
	})
	return out
}
