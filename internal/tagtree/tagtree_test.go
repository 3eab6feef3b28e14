package tagtree

import (
	"strings"
	"testing"
	"testing/quick"
)

const simpleDoc = `<html><head><title>Home Page</title></head>` +
	`<body><h1>Results</h1><hr><pre>item one</pre><hr><pre>item two</pre></body></html>`

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	root, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return root
}

func TestParseStructure(t *testing.T) {
	root := mustParse(t, simpleDoc)
	if root.Tag != "html" {
		t.Fatalf("root = %q, want html", root.Tag)
	}
	if got := len(root.ChildTags()); got != 2 {
		t.Fatalf("html has %d tag children, want 2 (head, body)", got)
	}
	head, body := root.Children[0], root.Children[1]
	if head.Tag != "head" || body.Tag != "body" {
		t.Fatalf("children = %q, %q", head.Tag, body.Tag)
	}
	if head.Index != 1 || body.Index != 2 {
		t.Errorf("indexes = %d, %d, want 1, 2", head.Index, body.Index)
	}
}

func TestContentNodes(t *testing.T) {
	root := mustParse(t, simpleDoc)
	title := root.FindAll("title")
	if len(title) != 1 {
		t.Fatalf("found %d title nodes", len(title))
	}
	if len(title[0].Children) != 1 || !title[0].Children[0].IsContent() {
		t.Fatal("title should have one content child")
	}
	if got := title[0].Children[0].Text; got != "Home Page" {
		t.Errorf("title text = %q", got)
	}
}

func TestNodeSizeDefinition(t *testing.T) {
	// nodeSize(tag) = sum of leaf content sizes under it.
	root := mustParse(t, `<html><body><p>abcd</p><p>efghij</p></body></html>`)
	body := root.FindAll("body")[0]
	if got, want := body.NodeSize(), len("abcd")+len("efghij"); got != want {
		t.Errorf("body nodeSize = %d, want %d", got, want)
	}
	if body.SubtreeSize() != body.NodeSize() {
		t.Error("subtreeSize must equal nodeSize per the paper")
	}
	ps := root.FindAll("p")
	if ps[0].NodeSize() != 4 || ps[1].NodeSize() != 6 {
		t.Errorf("p sizes = %d, %d", ps[0].NodeSize(), ps[1].NodeSize())
	}
}

func TestTagCountDefinition(t *testing.T) {
	// tagCount(leaf) = 1; tagCount(tag) = 1 + sum(children).
	root := mustParse(t, `<html><body><p>x</p></body></html>`)
	// html(1) + body(1) + p(1) + text(1) = 4
	if got := root.TagCount(); got != 4 {
		t.Errorf("tagCount = %d, want 4", got)
	}
	p := root.FindAll("p")[0]
	if got := p.TagCount(); got != 2 {
		t.Errorf("p tagCount = %d, want 2", got)
	}
}

func TestFanout(t *testing.T) {
	root := mustParse(t, `<html><body><ul><li>a</li><li>b</li><li>c</li></ul></body></html>`)
	ul := root.FindAll("ul")[0]
	if got := ul.Fanout(); got != 3 {
		t.Errorf("ul fanout = %d, want 3", got)
	}
	li := root.FindAll("li")[0]
	if got := li.Children[0].Fanout(); got != 0 {
		t.Errorf("content fanout = %d, want 0", got)
	}
}

func TestPathExpression(t *testing.T) {
	root := mustParse(t, simpleDoc)
	title := root.FindAll("title")[0]
	if got := Path(title); got != "html[1].head[1].title[1]" {
		t.Errorf("Path(title) = %q", got)
	}
	body := root.FindAll("body")[0]
	if got := Path(body); got != "html[1].body[2]" {
		t.Errorf("Path(body) = %q", got)
	}
}

func TestFindPathRoundTrip(t *testing.T) {
	root := mustParse(t, simpleDoc)
	var nodes []*Node
	root.Walk(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	})
	for _, n := range nodes {
		got := FindPath(root, Path(n))
		if got != n {
			t.Errorf("FindPath(%q) = %v, want original node", Path(n), got)
		}
	}
}

func TestFindPathRejectsBadPaths(t *testing.T) {
	root := mustParse(t, simpleDoc)
	for _, path := range []string{
		"", "body[1]", "html[1].nosuch[1]", "html[1].head[9]",
		"html[1].head[0]", "html[2]", "html[1].head[1].title[1].#text[5]",
		"html[1].head[x]",
	} {
		if got := FindPath(root, path); got != nil {
			t.Errorf("FindPath(%q) = %v, want nil", path, got)
		}
	}
}

func TestIsAncestorOf(t *testing.T) {
	root := mustParse(t, simpleDoc)
	body := root.FindAll("body")[0]
	pre := root.FindAll("pre")[0]
	if !root.IsAncestorOf(pre) {
		t.Error("root should be ancestor of pre")
	}
	if !body.IsAncestorOf(body) {
		t.Error("ancestor relation is reflexive per Definition 2(i)")
	}
	if pre.IsAncestorOf(body) {
		t.Error("pre is not an ancestor of body")
	}
}

func TestMinimalSubtree(t *testing.T) {
	root := mustParse(t, simpleDoc)
	hrs := root.FindAll("hr")
	if len(hrs) != 2 {
		t.Fatalf("found %d hr nodes, want 2", len(hrs))
	}
	min := MinimalSubtree(hrs)
	if min == nil || min.Tag != "body" {
		t.Errorf("minimal subtree = %v, want body", min)
	}
	if got := MinimalSubtree(nil); got != nil {
		t.Errorf("MinimalSubtree(nil) = %v", got)
	}
	single := MinimalSubtree(hrs[:1])
	if single != hrs[0] {
		t.Error("minimal subtree of one node is the node itself")
	}
}

func TestChildTagCounts(t *testing.T) {
	root := mustParse(t, simpleDoc)
	body := root.FindAll("body")[0]
	counts := body.ChildTagCounts()
	if counts["hr"] != 2 || counts["pre"] != 2 || counts["h1"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	tag, n := body.MaxChildTagCount()
	if n != 2 || (tag != "hr" && tag != "pre") {
		t.Errorf("max child tag = %q x%d", tag, n)
	}
}

func TestMaxChildTagCountTieBreaksByFirstAppearance(t *testing.T) {
	root := mustParse(t, `<html><body><hr><pre>a</pre><hr><pre>b</pre></body></html>`)
	body := root.FindAll("body")[0]
	tag, n := body.MaxChildTagCount()
	if tag != "hr" || n != 2 {
		t.Errorf("got %q x%d, want hr x2 (first to reach the max)", tag, n)
	}
}

func TestInnerText(t *testing.T) {
	root := mustParse(t, `<html><body><p>one <b>two</b> three</p></body></html>`)
	p := root.FindAll("p")[0]
	got := p.InnerText()
	for _, w := range []string{"one", "two", "three"} {
		if !strings.Contains(got, w) {
			t.Errorf("InnerText() = %q missing %q", got, w)
		}
	}
}

func TestWhitespaceOnlyTextDropped(t *testing.T) {
	root := mustParse(t, "<html><body>\n  <p>x</p>\n  </body></html>")
	body := root.FindAll("body")[0]
	for _, c := range body.Children {
		if c.IsContent() && strings.TrimSpace(c.Text) == "" {
			t.Error("whitespace-only content node survived")
		}
	}
}

func TestBuildErrNoRoot(t *testing.T) {
	if _, err := Build(nil, nil); err != ErrNoRoot {
		t.Errorf("Build(nil, nil) err = %v, want ErrNoRoot", err)
	}
}

func TestDepth(t *testing.T) {
	root := mustParse(t, simpleDoc)
	if root.Depth() != 0 {
		t.Errorf("root depth = %d", root.Depth())
	}
	title := root.FindAll("title")[0]
	if title.Depth() != 2 {
		t.Errorf("title depth = %d, want 2", title.Depth())
	}
}

func TestRender(t *testing.T) {
	root := mustParse(t, simpleDoc)
	out := Render(root, RenderOptions{ShowText: true, ShowMetrics: true})
	for _, want := range []string{"html", "body", "pre", `"item one"`} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	shallow := Render(root, RenderOptions{MaxDepth: 1})
	if strings.Contains(shallow, "pre") {
		t.Errorf("MaxDepth=1 rendered deep nodes:\n%s", shallow)
	}
}

func TestOutline(t *testing.T) {
	root := mustParse(t, simpleDoc)
	body := root.FindAll("body")[0]
	out := Outline(body)
	if !strings.Contains(out, "hr x2") || !strings.Contains(out, "pre x2") {
		t.Errorf("outline = %q", out)
	}
}

// Property: for every node, tagCount is 1 + sum of children's tagCounts and
// nodeSize is the sum of children's nodeSizes (or text length for leaves).
func TestMetricInvariants(t *testing.T) {
	root := mustParse(t, simpleDoc)
	root.Walk(func(n *Node) bool {
		if n.IsContent() {
			if n.TagCount() != 1 || n.NodeSize() != len(n.Text) {
				t.Errorf("leaf metrics wrong at %q", n.Text)
			}
			return true
		}
		wantTags, wantSize := 1, 0
		for _, c := range n.Children {
			wantTags += c.TagCount()
			wantSize += c.NodeSize()
		}
		if n.TagCount() != wantTags || n.NodeSize() != wantSize {
			t.Errorf("metrics wrong at %s: tags=%d want %d, size=%d want %d",
				Path(n), n.TagCount(), wantTags, n.NodeSize(), wantSize)
		}
		return true
	})
}

// Property: parsing arbitrary strings either errors (no tags) or yields a
// consistent tree whose every non-root node is indexed correctly.
func TestParsePropertyConsistency(t *testing.T) {
	f := func(s string) bool {
		root, err := Parse(s)
		if err != nil {
			return true
		}
		ok := true
		root.Walk(func(n *Node) bool {
			for i, c := range n.Children {
				if c.Parent != n || c.Index != i+1 {
					ok = false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
