package tagtree

import (
	"fmt"
	"strings"

	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/tidy"
)

// The reference implementation: Build and its whitespace collapse as they
// were before the flat-tree rewrite (per-node Children appends, a
// strings.Fields/Join collapse), kept verbatim apart from the names. The
// differential tests, FuzzParse and FuzzCollapseSpace hold the
// production code to them.

// Exported to the external test package, whose corpus and pathology
// sweeps cannot live here (corpus imports tagtree).
var (
	OracleParse = oracleParse
	DiffTrees   = diffTrees
)

// oracleParse is Parse with the reference builder.
func oracleParse(src string) (*Node, error) {
	toks, err := htmlparse.Tokenize(src, nil)
	if err != nil {
		return nil, err
	}
	if toks, err = tidy.NormalizeTokens(toks, nil); err != nil {
		return nil, err
	}
	return oracleBuild(toks, nil)
}

// oracleArena allocates Nodes in fixed chunks so a whole tree costs a
// handful of allocations instead of one per node. Chunks are never
// reallocated, so the pointers handed out stay stable; a tree's nodes die
// together with the tree, which is exactly the lifetime model of the
// immutable tag tree.
type oracleArena struct {
	chunk []Node
}

// next chunk sizes: grow geometrically, bounded so a pathological document
// cannot demand one giant allocation.
const (
	oracleArenaMinChunk = 128
	oracleArenaMaxChunk = 16384
)

func (a *oracleArena) newNode() *Node {
	if len(a.chunk) == cap(a.chunk) {
		size := 2 * cap(a.chunk)
		if size < oracleArenaMinChunk {
			size = oracleArenaMinChunk
		}
		if size > oracleArenaMaxChunk {
			size = oracleArenaMaxChunk
		}
		a.chunk = make([]Node, 0, size)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// oracleBuild constructs a tag tree from a balanced token stream, such as the
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
func oracleBuild(toks []htmlparse.Token, g *govern.Guard) (*Node, error) {
	ar := oracleArena{}
	if est := len(toks); est > 0 {
		size := est/2 + 8
		if size > oracleArenaMaxChunk {
			size = oracleArenaMaxChunk
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
			text := oracleCollapseSpace(tok.Data)
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

// oracleCollapseSpace trims text and collapses internal whitespace runs to single
// spaces, the usual HTML rendering model. Returns "" for whitespace-only
// input. Text that is already collapsed ASCII — the overwhelmingly common
// case — is returned unchanged without allocating.
func oracleCollapseSpace(s string) string {
	prevSpace := true // a space at position 0 is a leading space
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			if prevSpace {
				return oracleCollapseSpaceSlow(s)
			}
			prevSpace = true
		case c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' || c >= 0x80:
			// Other whitespace always needs rewriting; non-ASCII may hold
			// unicode spaces, which the slow path handles exactly.
			return oracleCollapseSpaceSlow(s)
		default:
			prevSpace = false
		}
	}
	if prevSpace {
		// Trailing space (or empty input) needs a trim.
		return oracleCollapseSpaceSlow(s)
	}
	return s
}

func oracleCollapseSpaceSlow(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// diffTrees compares got with the reference tree want node by node, in
// document order: Tag, Text, Attrs, Index, NodeSize, TagCount, Path, the
// number of children and the Parent link. It returns the first
// difference, nil when the trees agree. The walk is iterative, so deeply
// nested pathology pages cannot overflow the stack, and Path, which
// costs O(depth) per node, is compared down to pathDepth; deeper paths
// agree because every ancestor's Tag, Index and Parent did.
func diffTrees(got, want *Node) error {
	const pathDepth = 64
	type pair struct {
		got, want             *Node
		gotParent, wantParent *Node // the nodes whose Children held them
		depth                 int
	}
	work := []pair{{got: got, want: want}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		g, w := p.got, p.want
		var path string
		if p.depth <= pathDepth {
			path = Path(w)
		} else {
			path = fmt.Sprintf("node at depth %d", p.depth)
		}
		switch {
		case g.Parent != p.gotParent:
			return fmt.Errorf("%s: Parent is not the node whose child it is", path)
		case w.Parent != p.wantParent:
			return fmt.Errorf("%s: reference Parent is not the node whose child it is", path)
		case g.Tag != w.Tag:
			return fmt.Errorf("%s: Tag %q, want %q", path, g.Tag, w.Tag)
		case g.Text != w.Text:
			return fmt.Errorf("%s: Text %q, want %q", path, g.Text, w.Text)
		case !equalAttrs(g.Attrs, w.Attrs):
			return fmt.Errorf("%s: Attrs %v, want %v", path, g.Attrs, w.Attrs)
		case g.Index != w.Index:
			return fmt.Errorf("%s: Index %d, want %d", path, g.Index, w.Index)
		case g.NodeSize() != w.NodeSize():
			return fmt.Errorf("%s: NodeSize %d, want %d", path, g.NodeSize(), w.NodeSize())
		case g.TagCount() != w.TagCount():
			return fmt.Errorf("%s: TagCount %d, want %d", path, g.TagCount(), w.TagCount())
		case p.depth <= pathDepth && Path(g) != path:
			return fmt.Errorf("%s: Path %s", path, Path(g))
		case len(g.Children) != len(w.Children):
			return fmt.Errorf("%s: %d children, want %d", path, len(g.Children), len(w.Children))
		}
		for i := len(w.Children) - 1; i >= 0; i-- {
			work = append(work, pair{g.Children[i], w.Children[i], g, w, p.depth + 1})
		}
	}
	return nil
}

func equalAttrs(a, b []htmlparse.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
