package separator

import (
	"cmp"
	"slices"
	"strings"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// pp is the Partial Path heuristic of Section 5.5, introduced by Omini:
// multiple instances of one object type share the same tag structure, so
// the tag whose downward paths repeat most often is the likely separator.
// All paths from each candidate node (a child of the chosen subtree) to
// every node reachable from it are listed and counted; candidate tags are
// ranked descending by path count, with longer paths (more structure)
// breaking ties. With no paths longer than one, PP reduces to highest
// count — exactly the paper's remark about the Library of Congress page.
// Tags whose best path occurs only once are not ranked (the paper's Table 8
// lists no count-1 tags): a pattern seen once separates nothing.
type pp struct{}

// PP returns the partial path heuristic.
func PP() Heuristic { return pp{} }

func (pp) Name() string { return "PP" }

func (pp) Letter() byte { return 'P' }

// PathCount is one row of the partial-path listing (Table 7).
type PathCount struct {
	// Path is the dot-joined downward tag path, e.g. "table.tr.td".
	Path string
	// Count is the number of occurrences of the path across all candidate
	// nodes.
	Count int
}

func (pp) Rank(st *Stats) ([]Ranked, error) {
	trie, err := tagtree.BuildPathTrie(st.sub.Children, st.g)
	if err != nil {
		return nil, err
	}
	// The trie dedups top-level tags by construction, so the best path per
	// candidate tag is a max over that child's trie subtree: highest count,
	// longest path among those. Each entry is a top-level trie node with
	// its best count and length; top-level nodes are numbered in order of
	// their tag's first appearance, which breaks the remaining ties.
	bests := st.workList()
	for top := trie.Nodes[0].FirstChild; top != 0; top = trie.Nodes[top].NextSibling {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		var count, length int32
		for i := top; i != 0; i = trie.Next(i, top) {
			if err := st.g.Poll(); err != nil {
				return nil, err
			}
			if n := trie.Nodes[i]; n.Count > count || (n.Count == count && n.Depth > length) {
				count, length = n.Count, n.Depth
			}
		}
		bests = append(bests, cand{id: int(top), score: float64(count), n: int(length)})
	}
	slices.SortFunc(bests, func(a, b cand) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.id, b.id)
	})
	ranked := 0
	for ranked < len(bests) && bests[ranked].score >= 2 {
		ranked++
	}
	out := st.out(ranked)
	for _, b := range bests[:ranked] {
		out = append(out, Ranked{Tag: trie.Nodes[b.id].Tag, Score: b.score})
	}
	return out, nil
}

// PPPaths enumerates every downward tag path starting at a child of the
// chosen subtree (Table 7): for each candidate child c and each tag node v
// reachable from c, the dot-joined sequence of tag names from c to v counts
// one occurrence. Paths are returned in descending count order, ties broken
// by longer path then lexicographic order. The walk polls the guard; a nil
// guard means unlimited.
func PPPaths(sub *tagtree.Node, g *govern.Guard) ([]PathCount, error) {
	trie, err := tagtree.BuildPathTrie(sub.Children, g)
	if err != nil {
		return nil, err
	}
	sig := trie.Signature()
	out := make([]PathCount, 0, len(sig))
	for p, c := range sig {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		out = append(out, PathCount{Path: p, Count: c})
	}
	slices.SortFunc(out, func(a, b PathCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		la, lb := strings.Count(a.Path, "."), strings.Count(b.Path, ".")
		if la != lb {
			return cmp.Compare(lb, la)
		}
		return strings.Compare(a.Path, b.Path)
	})
	return out, nil
}
