package separator

import (
	"sort"
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
	trie := st.pp()
	stats := st.tags
	type best struct {
		count  int
		length int
	}
	// The trie dedups top-level tags by construction, so the best path per
	// candidate tag is a max over that child's trie subtree: highest count,
	// longest path among those.
	bests := make(map[string]best, len(trie.children))
	tags := make([]string, 0, len(trie.children))
	for _, top := range trie.children {
		st.g.Poll()
		b := best{}
		var scan func(t *ppTrieNode)
		scan = func(t *ppTrieNode) {
			if t.count > b.count || (t.count == b.count && t.depth > b.length) {
				b = best{count: t.count, length: t.depth}
			}
			for _, c := range t.children {
				scan(c)
			}
		}
		scan(top)
		bests[top.tag] = b
		tags = append(tags, top.tag)
	}
	sort.Slice(tags, func(i, j int) bool {
		a, b := bests[tags[i]], bests[tags[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		if a.length != b.length {
			return a.length > b.length
		}
		// Every path starts at a child of sub, so both tags have child
		// stats; remaining ties follow document order of first appearance.
		return stats[tags[i]].first < stats[tags[j]].first
	})
	out := make([]Ranked, 0, len(tags))
	for _, tag := range tags {
		if bests[tag].count < 2 {
			continue
		}
		out = append(out, Ranked{Tag: tag, Score: float64(bests[tag].count)})
	}
	return out
}

// ppTrieNode is one node of the partial-path trie: the tags on the way from
// the trie root to the node spell a downward tag path, count is the number
// of occurrences of that path. Children are a small slice scanned linearly —
// the distinct continuations of one path are few, and the scan avoids a map
// allocation per trie node.
type ppTrieNode struct {
	tag      string
	depth    int // path length in tags
	count    int
	children []*ppTrieNode
}

// child returns the continuation of t's path by tag, creating it on first
// use.
func (t *ppTrieNode) child(tag string) *ppTrieNode {
	for _, c := range t.children {
		if c.tag == tag {
			return c
		}
	}
	c := &ppTrieNode{tag: tag, depth: t.depth + 1}
	t.children = append(t.children, c)
	return c
}

// buildPPTrie counts every downward tag path starting at a child of sub.
// Replacing the per-node strings.Join of the naive enumeration, each tag
// node costs one linear trie step; path strings are only materialized once
// per distinct path, by PPPaths.
func buildPPTrie(sub *tagtree.Node) *ppTrieNode {
	root := &ppTrieNode{}
	var walk func(n *tagtree.Node, at *ppTrieNode)
	walk = func(n *tagtree.Node, at *ppTrieNode) {
		if n.IsContent() {
			return
		}
		at = at.child(n.Tag)
		at.count++
		for _, c := range n.Children {
			walk(c, at)
		}
	}
	for _, c := range sub.Children {
		walk(c, root)
	}
	return root
}

// PPPaths enumerates every downward tag path starting at a child of the
// chosen subtree (Table 7): for each candidate child c and each tag node v
// reachable from c, the dot-joined sequence of tag names from c to v counts
// one occurrence. Paths are returned in descending count order, ties broken
// by longer path then lexicographic order.
func PPPaths(sub *tagtree.Node) []PathCount {
	root := buildPPTrie(sub)
	var out []PathCount
	var parts []string
	var emit func(t *ppTrieNode)
	emit = func(t *ppTrieNode) {
		parts = append(parts, t.tag)
		out = append(out, PathCount{Path: strings.Join(parts, "."), Count: t.count})
		for _, c := range t.children {
			emit(c)
		}
		parts = parts[:len(parts)-1]
	}
	for _, c := range root.children {
		emit(c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		la, lb := strings.Count(a.Path, "."), strings.Count(b.Path, ".")
		if la != lb {
			return la > lb
		}
		return a.Path < b.Path
	})
	return out
}
