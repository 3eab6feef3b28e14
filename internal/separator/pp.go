package separator

import (
	"cmp"
	"slices"
	"strings"

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

func (pp) Rank(st *Stats) []Ranked {
	trie, err := st.pp()
	if err != nil {
		// The page is out of budget; combine.Combine reports it.
		return nil
	}
	type best struct {
		tag    string
		count  int32
		length int32
		first  int
	}
	// The trie dedups top-level tags by construction, so the best path per
	// candidate tag is a max over that child's trie subtree: highest count,
	// longest path among those.
	bests := make([]best, 0, len(st.tags))
	for top := trie.Nodes[0].FirstChild; top != 0; top = trie.Nodes[top].NextSibling {
		st.g.Poll()
		tag := trie.Nodes[top].Tag
		// Every path starts at a child of sub, so each tag has child stats.
		b := best{tag: tag, first: st.tags[tag].first}
		for i := top; i != 0; i = trie.Next(i, top) {
			st.g.Poll()
			if n := trie.Nodes[i]; n.Count > b.count || (n.Count == b.count && n.Depth > b.length) {
				b.count, b.length = n.Count, n.Depth
			}
		}
		bests = append(bests, b)
	}
	slices.SortFunc(bests, func(a, b best) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		if a.length != b.length {
			return cmp.Compare(b.length, a.length)
		}
		// Remaining ties follow document order of first appearance.
		return cmp.Compare(a.first, b.first)
	})
	out := make([]Ranked, 0, len(bests))
	for _, b := range bests {
		if b.count < 2 {
			continue
		}
		out = append(out, Ranked{Tag: b.tag, Score: float64(b.count)})
	}
	return out
}

// PPPaths enumerates every downward tag path starting at a child of the
// chosen subtree (Table 7): for each candidate child c and each tag node v
// reachable from c, the dot-joined sequence of tag names from c to v counts
// one occurrence. Paths are returned in descending count order, ties broken
// by longer path then lexicographic order.
func PPPaths(sub *tagtree.Node) []PathCount {
	trie, _ := tagtree.BuildPathTrie(sub.Children, nil)
	sig := trie.Signature()
	out := make([]PathCount, 0, len(sig))
	for p, c := range sig {
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
	return out
}
