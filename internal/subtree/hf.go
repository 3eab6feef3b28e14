package subtree

import (
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// hf is the Highest Fan-out heuristic of Section 4.1, adopted from Embley et
// al.: the subtree whose root has the most children should contain the
// records. It fails on chrome-heavy pages whose navigation menus out-fan the
// result list — which is exactly what GSI and LTC compensate for.
type hf struct{}

// HF returns the highest fan-out subtree heuristic.
func HF() Heuristic { return hf{} }

func (hf) Name() string { return "HF" }

func (hf) Rank(root *tagtree.Node, g *govern.Guard) ([]Ranked, error) {
	return rankCandidates(root, func(n *tagtree.Node) float64 {
		return float64(n.Fanout())
	}, g)
}
