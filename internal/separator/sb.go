package separator

import (
	"cmp"
	"slices"

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

func (sb) Rank(st *Stats) []Ranked {
	pairs := st.sb()
	stats := st.tags
	var out []Ranked
	seen := make(map[string]bool)
	for _, p := range pairs {
		st.g.Poll()
		tag := p.Pair.First
		if _, isChild := stats[tag]; !isChild || seen[tag] {
			continue
		}
		seen[tag] = true
		out = append(out, Ranked{Tag: tag, Score: float64(p.Count)})
	}
	return out
}

// SBPairs computes the sibling-pair ranking of Section 5.4: every adjacent
// pair among the tag children of the subtree root, ranked descending by
// count with ties broken by first appearance. Text between two siblings
// breaks their immediacy (a "a | a | a" link row yields no pairs); a tag's
// own content lives inside it and does not.
func SBPairs(sub *tagtree.Node) []SBPair {
	pairCount := make(map[TagPair]int)
	firstSeen := make(map[TagPair]int)
	prev := ""
	for i, c := range sub.Children {
		if c.IsContent() {
			prev = ""
			continue
		}
		if prev != "" {
			p := TagPair{First: prev, Second: c.Tag}
			if pairCount[p] == 0 {
				firstSeen[p] = i
			}
			pairCount[p]++
		}
		prev = c.Tag
	}
	out := make([]SBPair, 0, len(pairCount))
	for p, c := range pairCount {
		out = append(out, SBPair{Pair: p, Count: c})
	}
	slices.SortFunc(out, func(a, b SBPair) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(firstSeen[a.Pair], firstSeen[b.Pair])
	})
	return out
}
