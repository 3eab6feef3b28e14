package tagtree

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

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
	toks, err := htmlparse.Tokenize(nil, src, nil)
	if err != nil {
		return nil, err
	}
	if toks, err = tidy.NormalizeTokens(nil, toks, nil); err != nil {
		return nil, err
	}
	return Build(toks, nil)
}

// Build constructs a tag tree from a balanced token stream, such as the
// output of tidy.NormalizeTokens. Whitespace-only text between tags is
// dropped (it carries no content and would distort nodeSize); all other
// text becomes content nodes. If the stream has multiple top-level
// elements, they are wrapped in a synthetic "html" root.
//
// The tree is flat in memory: a pre-count of the start-tag and content
// tokens sizes three page-wide slabs, so a page costs a constant number of
// allocations however many nodes it has.
//
//   - Every Node comes from one []Node slab.
//   - Every Children slice is a capped sub-slice of one []*Node slab: an
//     open element's children wait on a page-wide pending stack, and when
//     the element closes they are copied into the slab in one piece. The
//     capped cap means an append by a caller reallocates instead of
//     overwriting a sibling's children.
//   - Text that needs collapsing is collapsed into one page-wide
//     strings.Builder and each such node's Text is a substring of it;
//     already-collapsed text is used as is.
//
// The size/count metrics are folded parent-ward as each element closes,
// so construction needs no second finalize walk. tagtree.Validate checks
// the resulting invariants in tests.
//
// Every created node is charged against the guard's node budget and the
// element stack is checked against its depth limit on each push. Later
// phases walk the tree recursively, so the depth bound here is what keeps
// their goroutine stacks finite on adversarially nested input. A nil guard
// means unlimited.
func Build(toks []htmlparse.Token, g *govern.Guard) (*Node, error) {
	nodeCount, textBytes := precount(toks)
	if left := g.NodesLeft(); left >= 0 && nodeCount > left {
		// The guard fails the build before node left+1 is made.
		nodeCount = left
	}
	// One more node for a synthetic root; children and pending
	// pointers share one allocation.
	nodes := make([]Node, 0, nodeCount+1)
	ptrs := make([]*Node, 2*nodeCount)
	slab, pending := ptrs[:0:nodeCount], ptrs[nodeCount:nodeCount:2*nodeCount]
	var text strings.Builder
	text.Grow(textBytes)

	// open is an element on the stack with the pending index of its
	// first child; children at the bottom (start 0) are the roots.
	type open struct {
		n     *Node
		start int
	}
	// Pages rarely nest 64 deep, so the stack usually stays off the heap.
	stack := make([]open, 0, 64)
	// Appends stay within the pre-counted capacities; were one to
	// grow a slab, the nodes and children already handed out would keep
	// the old backing array, so nothing is ever overwritten.
	newNode := func() *Node {
		nodes = append(nodes, Node{})
		return &nodes[len(nodes)-1]
	}
	appendChild := func(c *Node) {
		start := 0
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			c.Parent, start = top.n, top.start
		}
		pending = append(pending, c)
		c.Index = len(pending) - start
	}
	// adopt moves the pending children from start on into the slab as
	// p's Children.
	adopt := func(p *Node, start int) {
		kids := pending[start:]
		if len(kids) > 0 {
			off := len(slab)
			slab = append(slab, kids...)
			p.Children = slab[off:len(slab):len(slab)]
		}
		pending = pending[:start]
	}
	// pop closes the top element, folding its finished metrics into its
	// parent on the stack.
	pop := func() *Node {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adopt(top.n, top.start)
		if len(stack) > 0 {
			p := stack[len(stack)-1].n
			p.nodeSize += top.n.nodeSize
			p.tagCount += top.n.tagCount
		}
		return top.n
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
			n := newNode()
			n.Tag = tok.Data
			n.Attrs = tok.Attrs
			n.tagCount = 1
			appendChild(n)
			stack = append(stack, open{n, len(pending)})
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
			s := collapseSpace(tok.Data, &text)
			if s == "" {
				continue
			}
			if err := g.Nodes(1); err != nil {
				return nil, err
			}
			n := newNode()
			n.Text = s
			n.nodeSize = len(s)
			n.tagCount = 1
			appendChild(n)
			// Content nodes never sit on the stack: fold immediately.
			if len(stack) > 0 {
				p := stack[len(stack)-1].n
				p.nodeSize += n.nodeSize
				p.tagCount++
			}
		}
	}
	for len(stack) > 0 {
		g.Poll()
		pop()
	}

	// What is left pending are the roots.
	var root *Node
	switch {
	case len(pending) == 0:
		return nil, ErrNoRoot
	case len(pending) == 1 && !pending[0].IsContent():
		root = pending[0]
	default:
		root = newNode()
		root.Tag = "html"
		root.tagCount = 1
		for _, r := range pending {
			g.Poll()
			r.Parent = root
			root.nodeSize += r.nodeSize
			root.tagCount += r.tagCount
		}
		adopt(root, 0)
	}
	root.Index = 1
	return root, nil
}

// precount returns an upper bound on the nodes Build makes from toks (one
// per start tag, one per text token that is not all whitespace) and on
// the bytes of collapsed text it writes (the length of every text that is
// not already collapsed).
func precount(toks []htmlparse.Token) (nodes, textBytes int) {
	for i := range toks {
		switch tok := &toks[i]; tok.Type {
		case htmlparse.StartTagToken:
			nodes++
		case htmlparse.TextToken:
			switch {
			case isCollapsed(tok.Data):
				nodes++
			case !isBlank(tok.Data):
				nodes++
				textBytes += len(tok.Data)
			}
		}
	}
	return nodes, textBytes
}

// collapseSpace trims s and collapses its internal whitespace runs to
// single spaces, the usual HTML rendering model: the result equals
// strings.Join(strings.Fields(s), " "), and is "" for whitespace-only
// input. Text that is already collapsed ASCII — the overwhelmingly common
// case — is returned unchanged. Any other text is written into buf and
// returned as a substring of it; bytes that are not whitespace, invalid
// UTF-8 included, are copied verbatim.
func collapseSpace(s string, buf *strings.Builder) string {
	if isCollapsed(s) {
		return s
	}
	start := buf.Len()
	space := false // a whitespace run is pending
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(c) {
			space = true
		} else {
			if space && buf.Len() > start {
				buf.WriteByte(' ')
			}
			space = false
			buf.WriteString(s[i : i+size])
		}
		i += size
	}
	// The builder only ever appends, so the substring stays valid as it
	// grows.
	return buf.String()[start:]
}

// isCollapsed reports whether s is non-empty ASCII without leading,
// trailing or repeated spaces and without any other whitespace.
// Non-ASCII text may hold unicode spaces, so it never qualifies.
func isCollapsed(s string) bool {
	prevSpace := true // a space at position 0 is a leading space
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		case c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' || c >= utf8.RuneSelf:
			return false
		default:
			prevSpace = false
		}
	}
	// A trailing space (or empty input) needs a trim.
	return !prevSpace
}

// isBlank reports whether s holds nothing but whitespace.
func isBlank(s string) bool {
	for _, c := range s {
		if !unicode.IsSpace(c) {
			return false
		}
	}
	return true
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
