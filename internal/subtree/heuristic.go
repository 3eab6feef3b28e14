// Package subtree implements the object-rich subtree extraction heuristics
// of the paper's Section 4: HF (highest fan-out), GSI (greatest size
// increase), LTC (largest tag count), and the compound multi-dimensional
// volume algorithm that combines them. Given the tag tree of a page, each
// heuristic ranks candidate subtrees; the top-ranked subtree is taken as the
// minimal subtree containing all objects of interest.
package subtree

import (
	"cmp"
	"slices"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// Ranked is one entry of a heuristic's ranked subtree list.
type Ranked struct {
	// Node anchors the ranked subtree.
	Node *tagtree.Node
	// Score is the heuristic's figure of merit; higher ranks first.
	Score float64
}

// Heuristic ranks the subtrees of a document, best candidate first.
type Heuristic interface {
	// Name returns the short name used in reports ("HF", "GSI", ...).
	Name() string
	// Rank returns candidate subtrees in descending order of merit. The
	// candidate walk polls the guard's page context, so a cancelled or
	// out-of-time page stops mid-walk with the guard's error; a nil
	// guard means unlimited.
	Rank(root *tagtree.Node, g *govern.Guard) ([]Ranked, error)
}

// candidates returns the subtree anchors a heuristic considers: every tag
// node with at least one child. Content nodes anchor no subtree, and a
// childless tag cannot contain multiple objects.
func candidates(root *tagtree.Node) []*tagtree.Node {
	cl, _ := collectCandidates(root, nil)
	return cl.nodes
}

// candList holds the candidate anchors of one ranking pass in document
// order, with each anchor's depth (relative to the ranked root) precomputed
// so sorting needs no per-comparison tree walks.
type candList struct {
	nodes  []*tagtree.Node
	depths []int
}

// collectCandidates gathers the candidate anchors and their depths in one
// walk. Depths are relative to root; tie-breaks only compare depths, so the
// constant offset to absolute depth is irrelevant. The guard is polled
// once per visited node, so a cancelled page abandons the walk.
func collectCandidates(root *tagtree.Node, g *govern.Guard) (candList, error) {
	est := root.TagCount()/4 + 4
	cl := candList{
		nodes:  make([]*tagtree.Node, 0, est),
		depths: make([]int, 0, est),
	}
	var err error
	var walk func(n *tagtree.Node, depth int)
	walk = func(n *tagtree.Node, depth int) {
		if err != nil || n.IsContent() {
			return
		}
		if err = g.Poll(); err != nil {
			return
		}
		if n.Fanout() > 0 {
			cl.nodes = append(cl.nodes, n)
			cl.depths = append(cl.depths, depth)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if err != nil {
		return candList{}, err
	}
	return cl, nil
}

// rankCandidates scores every candidate anchor under root and returns the
// ranking in descending score order. Ties prefer the deeper node (the
// *minimal* subtree with the property, per Definition 4) and then document
// order, so rankings are deterministic. The tree is walked once; sorting
// works on a precomputed index with no maps and no Depth() traversals.
func rankCandidates(root *tagtree.Node, score func(*tagtree.Node) float64, g *govern.Guard) ([]Ranked, error) {
	cl, err := collectCandidates(root, g)
	if err != nil {
		return nil, err
	}
	entries := make([]Ranked, len(cl.nodes))
	idx := make([]int, len(cl.nodes))
	for i, n := range cl.nodes {
		g.Poll()
		entries[i] = Ranked{Node: n, Score: score(n)}
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		if entries[i].Score != entries[j].Score {
			return cmp.Compare(entries[j].Score, entries[i].Score)
		}
		if cl.depths[i] != cl.depths[j] {
			return cmp.Compare(cl.depths[j], cl.depths[i])
		}
		return cmp.Compare(i, j)
	})
	out := make([]Ranked, len(entries))
	for k, i := range idx {
		g.Poll()
		out[k] = entries[i]
	}
	return out, nil
}

// Top returns the first n entries of a ranked list (or fewer).
func Top(ranked []Ranked, n int) []Ranked {
	if len(ranked) < n {
		return ranked
	}
	return ranked[:n]
}
