package subtree

import (
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// ltcReexamineWindow bounds the LTC re-ranking pass. Only the head of the
// ranked list can ever be chosen, so re-examining the whole list (quadratic
// in page size) buys nothing; the paper's examples involve swaps within the
// top handful of subtrees.
const ltcReexamineWindow = 64

// ltc is the Largest Tag Count heuristic of Section 4.3: more tags in a
// subtree make it likelier to contain the data objects. Because an ancestor
// always out-counts its descendants, ranked subtrees in an ancestor
// relationship are re-examined: the one whose *child tag* has the higher
// appearance count wins (13 table children under form beat 2 form children
// under body, in the paper's canoe.com example).
type ltc struct {
	window int
}

// LTC returns the largest tag count subtree heuristic.
func LTC() Heuristic { return ltc{window: ltcReexamineWindow} }

func (ltc) Name() string { return "LTC" }

func (h ltc) Rank(root *tagtree.Node, g *govern.Guard) ([]Ranked, error) {
	entries, err := rankCandidates(root, func(n *tagtree.Node) float64 {
		return float64(n.TagCount())
	}, g)
	if err != nil {
		return nil, err
	}

	// Step 2: walk down the ranked list and re-examine ancestor pairs.
	// When a higher-ranked subtree T_i is in an ancestor relationship with
	// a lower-ranked T_j and T_j's highest child-tag appearance count
	// exceeds T_i's, the two exchange ranking positions.
	window := h.window
	if window <= 0 || window > len(entries) {
		window = len(entries)
	}
	maxChild := make(map[*tagtree.Node]int, window)
	countOf := func(n *tagtree.Node) int {
		if c, ok := maxChild[n]; ok {
			return c
		}
		_, c := n.MaxChildTagCount()
		maxChild[n] = c
		return c
	}
	for i := 0; i < window; i++ {
		for j := i + 1; j < window; j++ {
			g.Poll()
			a, b := entries[i].Node, entries[j].Node
			if !a.IsAncestorOf(b) && !b.IsAncestorOf(a) {
				continue
			}
			// The re-examination corrects for ancestor inflation: an
			// ancestor always out-counts its descendants, so when the
			// descendant holds the bulk of the ancestor's tags the child
			// appearance counts decide instead (13 tables under form[4]
			// beat 2 forms under body). A small descendant — a navigation
			// menu with many links deep inside the region — must not win
			// on child counts alone, so re-ranking applies only between
			// subtrees of comparable tag count.
			desc := b
			if b.IsAncestorOf(a) {
				desc = a
			}
			anc := a
			if desc == a {
				anc = b
			}
			if desc.TagCount()*2 < anc.TagCount() {
				continue
			}
			if countOf(b) > countOf(a) {
				entries[i], entries[j] = entries[j], entries[i]
				// Re-examine the new occupant of position i against the
				// remainder of the list, per the paper's walk-down loop.
				j = i
			}
		}
	}
	return entries, nil
}
