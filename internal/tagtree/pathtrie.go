package tagtree

import (
	"slices"
	"strings"

	"omini/internal/govern"
)

// PathTrie is a multiset of downward tag paths held as a trie in one flat
// slice: the tags on the way from a child of the root down to a node spell
// one path, and the node's Count is the number of tag nodes that path ends
// at. It is the one way the tree counts paths: the drift signature (and so
// the drift score) and the PP heuristic both walk a trie instead of
// building a string per tree node, and render each distinct path at most
// once.
type PathTrie struct {
	// Nodes holds the trie. Nodes[0] is the root, the empty path, and
	// every node comes after its parent.
	Nodes []PathNode
	// g is the guard the trie was built under; its walks charge it.
	g *govern.Guard
	// size is the total length of every distinct path, dot-joined.
	size int
	// wide indexes the children of the nodes with more than scanLimit
	// distinct children, so a page of many distinct sibling tags stays
	// linear.
	wide map[childKey]int32
}

// PathNode is one distinct path of a PathTrie.
type PathNode struct {
	// Tag is the path's last tag.
	Tag string
	// Parent, FirstChild and NextSibling index the trie's Nodes. The root
	// is nobody's child or sibling, so a FirstChild or NextSibling of 0
	// means none.
	Parent, FirstChild, NextSibling int32
	// Depth is the path's length in tags: 1 for the root's children.
	Depth int32
	// Count is the number of tag nodes the path ends at.
	Count int32
}

type childKey struct {
	parent int32
	tag    string
}

// scanLimit is how many siblings a child lookup scans before it goes
// through the wide index. Real pages have a handful of distinct child tags
// under any one path, so they never build the index.
const scanLimit = 32

// BuildPathTrie counts every downward tag path that starts at one of tops:
// for each top t and each tag node v in t's subtree, the tags from t down
// to v count once. Content nodes end no path and lead to none. The walk
// charges g one Poll per tag node; a nil guard means unlimited, and then
// BuildPathTrie never fails.
func BuildPathTrie(tops []*Node, g *govern.Guard) (PathTrie, error) {
	// 32 nodes hold every corpus page's signature (at most 24 distinct
	// paths) and every PP trie, so the slice rarely grows.
	t := PathTrie{Nodes: make([]PathNode, 1, 32), g: g}
	for _, n := range tops {
		if err := t.add(n, 0, 0); err != nil {
			return PathTrie{}, err
		}
	}
	return t, nil
}

// add counts the path of n, continuing the path of trie node at whose
// rendering is plen bytes long, and every path below n.
func (t *PathTrie) add(n *Node, at int32, plen int) error {
	if n == nil || n.IsContent() {
		return nil
	}
	if err := t.g.Poll(); err != nil {
		return err
	}
	if at != 0 {
		plen++ // the dot
	}
	plen += len(n.Tag)
	at = t.child(at, n.Tag, plen)
	t.Nodes[at].Count++
	for _, c := range n.Children {
		if err := t.add(c, at, plen); err != nil {
			return err
		}
	}
	return nil
}

// child returns the node continuing at's path by tag, creating it on first
// use; plen is the length of the continued path's rendering.
func (t *PathTrie) child(at int32, tag string, plen int) int32 {
	c, last, n := t.Nodes[at].FirstChild, int32(0), 0
	for ; c != 0 && n < scanLimit; n++ {
		t.g.Poll()
		if t.Nodes[c].Tag == tag {
			return c
		}
		last, c = c, t.Nodes[c].NextSibling
	}
	if c != 0 {
		// at has outgrown the scan, so all its children are indexed.
		key := childKey{at, tag}
		if i, ok := t.wide[key]; ok {
			return i
		}
		i := t.newNode(at, tag, plen)
		t.Nodes[i].NextSibling = t.Nodes[at].FirstChild
		t.Nodes[at].FirstChild = i
		t.wide[key] = i
		return i
	}
	i := t.newNode(at, tag, plen)
	if last == 0 {
		t.Nodes[at].FirstChild = i
		return i
	}
	t.Nodes[last].NextSibling = i
	if n == scanLimit {
		// The new child outgrows the scan: index all of at's children.
		if t.wide == nil {
			t.wide = make(map[childKey]int32)
		}
		for c := t.Nodes[at].FirstChild; c != 0; c = t.Nodes[c].NextSibling {
			t.g.Poll()
			t.wide[childKey{at, t.Nodes[c].Tag}] = c
		}
	}
	return i
}

// newNode appends an unlinked child of parent ending its path with tag.
func (t *PathTrie) newNode(parent int32, tag string, plen int) int32 {
	t.size += plen
	t.Nodes = append(t.Nodes, PathNode{Tag: tag, Parent: parent, Depth: t.Nodes[parent].Depth + 1})
	return int32(len(t.Nodes) - 1)
}

// Next returns the node after i in a pre-order walk of top's subtree, or 0
// when i is the walk's last node. Starting at top, it visits top and every
// path that continues top's.
func (t *PathTrie) Next(i, top int32) int32 {
	if c := t.Nodes[i].FirstChild; c != 0 {
		return c
	}
	for ; i != top; i = t.Nodes[i].Parent {
		t.g.Poll()
		if s := t.Nodes[i].NextSibling; s != 0 {
			return s
		}
	}
	return 0
}

// AppendPath appends the dot-joined path of node i to buf, e.g.
// "table.tr.td".
func (t *PathTrie) AppendPath(buf []byte, i int32) []byte {
	n := -1 // no dot before the first tag
	for v := i; v != 0; v = t.Nodes[v].Parent {
		t.g.Poll()
		n += len(t.Nodes[v].Tag) + 1
	}
	if n < 0 {
		return buf
	}
	start := len(buf)
	buf = slices.Grow(buf, n)[:start+n]
	end := start + n
	for v := i; v != 0; v = t.Nodes[v].Parent {
		t.g.Poll()
		tag := t.Nodes[v].Tag
		end -= len(tag)
		copy(buf[end:], tag)
		if end > start {
			end--
			buf[end] = '.'
		}
	}
	return buf
}

// Signature returns the trie's paths as a Signature. Each distinct path is
// rendered once into one arena string, and the map is keyed with its
// substrings.
func (t *PathTrie) Signature() Signature {
	sig := make(Signature, len(t.Nodes)-1)
	var arena strings.Builder
	arena.Grow(t.size)
	var scratch [256]byte
	for i := 1; i < len(t.Nodes); i++ {
		t.g.Poll()
		start := arena.Len()
		arena.Write(t.AppendPath(scratch[:0], int32(i)))
		// A Builder only appends, so earlier substrings stay valid.
		sig[arena.String()[start:]] += int(t.Nodes[i].Count)
	}
	return sig
}
