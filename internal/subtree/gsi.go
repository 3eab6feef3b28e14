package subtree

import (
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// gsi is the Greatest Size Increase heuristic of Section 4.2: rank subtrees
// by the increase from the average child size to the subtree size, i.e.
// nodeSize(u) - nodeSize(u)/fanout(u). A subtree holding a whole result set
// is much larger than each of its per-object children, so its size increase
// dwarfs that of navigation menus made of short links.
type gsi struct{}

// GSI returns the greatest size increase subtree heuristic.
func GSI() Heuristic { return gsi{} }

func (gsi) Name() string { return "GSI" }

func (gsi) Rank(root *tagtree.Node, g *govern.Guard) ([]Ranked, error) {
	return rankCandidates(root, sizeIncrease, g)
}

// sizeIncrease computes the GSI score of one node: the node size minus the
// average size of its children ("dividing the node size by the node fanout
// and subtracting the result from the original node size").
func sizeIncrease(n *tagtree.Node) float64 {
	fanout := n.Fanout()
	if fanout == 0 {
		return 0
	}
	size := float64(n.NodeSize())
	return size - size/float64(fanout)
}
