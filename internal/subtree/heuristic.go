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
	cands, _ := collect(root, 0, func(*tagtree.Node) float64 { return 0 }, nil, nil)
	out := make([]*tagtree.Node, len(cands))
	for i, c := range cands {
		out[i] = c.Node
	}
	return out
}

// candidate is one anchor of a ranking pass: its ranked entry, its
// depth relative to the ranked root and its document order, so sorting
// needs no per-comparison tree walks.
type candidate struct {
	Ranked
	depth, order int
}

// collect appends n and every candidate anchor below it to cands in
// document order, scored by score, n lying depth levels below the
// ranked root. Tie-breaks only compare depths, so the constant offset
// to absolute depth is irrelevant. The guard is polled once per visited
// node, so a cancelled page abandons the walk.
func collect(n *tagtree.Node, depth int, score func(*tagtree.Node) float64, g *govern.Guard, cands []candidate) ([]candidate, error) {
	if n.IsContent() {
		return cands, nil
	}
	if err := g.Poll(); err != nil {
		return nil, err
	}
	if n.Fanout() == 0 {
		return cands, nil
	}
	cands = append(cands, candidate{Ranked: Ranked{Node: n, Score: score(n)}, depth: depth, order: len(cands)})
	var err error
	for _, c := range n.Children {
		if cands, err = collect(c, depth+1, score, g, cands); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// rankCandidates scores every candidate anchor under root and returns the
// ranking in descending score order. Ties prefer the deeper node (the
// *minimal* subtree with the property, per Definition 4) and then document
// order, so rankings are deterministic. The tree is walked once into one
// list, which is sorted in place and copied out.
func rankCandidates(root *tagtree.Node, score func(*tagtree.Node) float64, g *govern.Guard) ([]Ranked, error) {
	cands, err := collect(root, 0, score, g, make([]candidate, 0, root.TagCount()/2+4))
	if err != nil {
		return nil, err
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.depth != b.depth {
			return cmp.Compare(b.depth, a.depth)
		}
		return cmp.Compare(a.order, b.order)
	})
	out := make([]Ranked, len(cands))
	for i, c := range cands {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		out[i] = c.Ranked
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
