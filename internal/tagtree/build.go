package tagtree

import (
	"errors"
	"fmt"
	"strings"

	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/tidy"
)

// ErrNoRoot is returned when a token stream contains no tag at all.
var ErrNoRoot = errors.New("tagtree: document has no tag nodes")

// Parse lexes src, normalizes it (via package tidy) and builds its tag
// tree with no resource limits. This is the Phase-1 pipeline of the paper:
// syntactic normalization followed by tag tree construction.
func Parse(src string) (*Node, error) {
	toks, err := htmlparse.Tokenize(src, nil)
	if err != nil {
		return nil, err
	}
	if toks, err = tidy.NormalizeTokens(toks, nil); err != nil {
		return nil, err
	}
	return Build(toks, nil)
}

// arena allocates Nodes in fixed chunks so a whole tree costs a handful of
// allocations instead of one per node. Chunks are never reallocated, so the
// pointers handed out stay stable; a tree's nodes die together with the
// tree, which is exactly the lifetime model of the immutable tag tree.
type arena struct {
	chunk []Node
}

// next chunk sizes: grow geometrically, bounded so a pathological document
// cannot demand one giant allocation.
const (
	arenaMinChunk = 128
	arenaMaxChunk = 16384
)

func (a *arena) newNode() *Node {
	if len(a.chunk) == cap(a.chunk) {
		size := 2 * cap(a.chunk)
		if size < arenaMinChunk {
			size = arenaMinChunk
		}
		if size > arenaMaxChunk {
			size = arenaMaxChunk
		}
		a.chunk = make([]Node, 0, size)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// Build constructs a tag tree from a balanced token stream, such as the
// output of tidy.NormalizeTokens. Whitespace-only text between tags is
// dropped (it carries no content and would distort nodeSize); all other
// text becomes content nodes. If the stream has multiple top-level
// elements, they are wrapped in a synthetic "html" root.
//
// Nodes come from a chunked arena and the size/count metrics are computed
// in this single pass (folded parent-ward as each element closes), so
// construction performs no per-node allocation and no second finalize walk.
// tagtree.Validate checks the resulting invariants in tests.
//
// Every created node is charged against the guard's node budget and the
// element stack is checked against its depth limit on each push. Later
// phases walk the tree recursively, so the depth bound here is what keeps
// their goroutine stacks finite on adversarially nested input. A nil guard
// means unlimited.
func Build(toks []htmlparse.Token, g *govern.Guard) (*Node, error) {
	ar := arena{}
	if est := len(toks); est > 0 {
		size := est/2 + 8
		if size > arenaMaxChunk {
			size = arenaMaxChunk
		}
		ar.chunk = make([]Node, 0, size)
	}
	var roots []*Node
	var stack []*Node

	appendChild := func(c *Node) {
		if len(stack) == 0 {
			roots = append(roots, c)
			return
		}
		p := stack[len(stack)-1]
		c.Parent = p
		c.Index = len(p.Children) + 1
		p.Children = append(p.Children, c)
	}
	// pop closes the top element, folding its finished metrics into its
	// parent on the stack.
	pop := func() *Node {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			p.nodeSize += top.nodeSize
			p.tagCount += top.tagCount
		}
		return top
	}

	for i := range toks {
		tok := &toks[i]
		switch tok.Type {
		case htmlparse.StartTagToken:
			if err := g.Nodes(1); err != nil {
				return nil, err
			}
			if err := g.Depth(len(stack) + 1); err != nil {
				return nil, err
			}
			n := ar.newNode()
			n.Tag = tok.Data
			n.Attrs = tok.Attrs
			n.tagCount = 1
			appendChild(n)
			stack = append(stack, n)
		case htmlparse.EndTagToken:
			// The stream is balanced; pop the matching element. Guard
			// against malformed input anyway.
			for len(stack) > 0 {
				g.Poll()
				if pop().Tag == tok.Data {
					break
				}
			}
		case htmlparse.TextToken:
			text := collapseSpace(tok.Data)
			if text == "" {
				continue
			}
			if err := g.Nodes(1); err != nil {
				return nil, err
			}
			n := ar.newNode()
			n.Text = text
			n.nodeSize = len(text)
			n.tagCount = 1
			appendChild(n)
			// Content nodes never sit on the stack: fold immediately.
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				p.nodeSize += n.nodeSize
				p.tagCount++
			}
		}
	}
	for len(stack) > 0 {
		g.Poll()
		pop()
	}

	var root *Node
	switch {
	case len(roots) == 0:
		return nil, ErrNoRoot
	case len(roots) == 1 && !roots[0].IsContent():
		root = roots[0]
	default:
		root = ar.newNode()
		root.Tag = "html"
		root.tagCount = 1
		root.Children = make([]*Node, len(roots))
		for i, r := range roots {
			g.Poll()
			r.Parent = root
			r.Index = i + 1
			root.Children[i] = r
			root.nodeSize += r.nodeSize
			root.tagCount += r.tagCount
		}
	}
	root.Index = 1
	return root, nil
}

// collapseSpace trims text and collapses internal whitespace runs to single
// spaces, the usual HTML rendering model. Returns "" for whitespace-only
// input. Text that is already collapsed ASCII — the overwhelmingly common
// case — is returned unchanged without allocating.
func collapseSpace(s string) string {
	prevSpace := true // a space at position 0 is a leading space
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			if prevSpace {
				return collapseSpaceSlow(s)
			}
			prevSpace = true
		case c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' || c >= 0x80:
			// Other whitespace always needs rewriting; non-ASCII may hold
			// unicode spaces, which the slow path handles exactly.
			return collapseSpaceSlow(s)
		default:
			prevSpace = false
		}
	}
	if prevSpace {
		// Trailing space (or empty input) needs a trim.
		return collapseSpaceSlow(s)
	}
	return s
}

func collapseSpaceSlow(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Path returns the dot-notation path expression from the root to n, e.g.
// "html[1].body[2].form[4]" (the paper's HTML[1].body[2].form[4]).
// Content nodes are addressed as "#text[i]".
func Path(n *Node) string {
	if n == nil {
		return ""
	}
	var parts []string
	for v := n; v != nil; v = v.Parent {
		name := v.Tag
		if v.IsContent() {
			name = "#text"
		}
		parts = append(parts, fmt.Sprintf("%s[%d]", name, v.Index))
	}
	// Reverse.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ".")
}

// FindPath resolves a dot-notation path expression against the tree rooted
// at root. The root segment must match the root node. It returns nil when
// the path does not resolve.
func FindPath(root *Node, path string) *Node {
	if root == nil || path == "" {
		return nil
	}
	segs := strings.Split(path, ".")
	name, idx, ok := parseSeg(segs[0])
	if !ok || name != root.Tag || idx != root.Index {
		return nil
	}
	cur := root
	for _, seg := range segs[1:] {
		name, idx, ok := parseSeg(seg)
		if !ok || idx < 1 || idx > len(cur.Children) {
			return nil
		}
		child := cur.Children[idx-1]
		childName := child.Tag
		if child.IsContent() {
			childName = "#text"
		}
		if childName != name {
			return nil
		}
		cur = child
	}
	return cur
}

// parseSeg splits a path segment "tag[3]" into its name and 1-based index.
// A segment without brackets implies index 1.
func parseSeg(seg string) (name string, idx int, ok bool) {
	open := strings.IndexByte(seg, '[')
	if open < 0 {
		return seg, 1, seg != ""
	}
	if !strings.HasSuffix(seg, "]") {
		return "", 0, false
	}
	name = seg[:open]
	numStr := seg[open+1 : len(seg)-1]
	if name == "" || numStr == "" {
		return "", 0, false
	}
	n := 0
	for i := 0; i < len(numStr); i++ {
		c := numStr[i]
		if c < '0' || c > '9' {
			return "", 0, false
		}
		n = n*10 + int(c-'0')
	}
	return name, n, true
}

// MinimalSubtree returns the minimal subtree (Definition 4) containing all
// of the given nodes: the deepest node that is an ancestor of every node in
// the set. It returns nil for an empty set.
func MinimalSubtree(nodes []*Node) *Node {
	if len(nodes) == 0 {
		return nil
	}
	anc := nodes[0]
	for _, n := range nodes[1:] {
		anc = commonAncestor(anc, n)
		if anc == nil {
			return nil
		}
	}
	return anc
}

// commonAncestor returns the deepest common ancestor of a and b.
func commonAncestor(a, b *Node) *Node {
	da, db := a.Depth(), b.Depth()
	for da > db {
		a = a.Parent
		da--
	}
	for db > da {
		b = b.Parent
		db--
	}
	for a != b {
		a, b = a.Parent, b.Parent
		if a == nil || b == nil {
			return nil
		}
	}
	return a
}
