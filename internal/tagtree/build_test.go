package tagtree

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/tidy"
)

// FuzzCollapseSpace holds the one-pass collapse to the strings.Fields
// model it replaces, and to the precount's assumptions: blank text
// collapses to "", already-collapsed text comes back as is, and any
// other text writes no more bytes into the page buffer than it had.
func FuzzCollapseSpace(f *testing.F) {
	for _, s := range []string{
		"",
		" ",
		"a",
		"already collapsed",
		" lead",
		"trail ",
		"a  b",
		"\t\r\n\v\f",
		"a\t\tb\r\r\nc \r\n d",
		"\xff a\x80  b",  // invalid UTF-8 is copied, never rewritten
		"\xe3\x80 \x80",  // a truncated U+3000
		"a\u00a0b\u00a0", // NBSP
		"x\u0085y",       // NEL
		"p\u2028q\u2029r",
		"\u3000ideographic\u3000space\u3000",
		"café  crème",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.Join(strings.Fields(s), " ")
		var buf strings.Builder
		buf.WriteString("earlier text")
		before := buf.Len()
		got := collapseSpace(s, &buf)
		if got != want {
			t.Fatalf("collapseSpace(%q) = %q, want %q", s, got, want)
		}
		if ref := oracleCollapseSpace(s); got != ref {
			t.Fatalf("collapseSpace(%q) = %q, reference %q", s, got, ref)
		}
		written := buf.Len() - before
		switch {
		case isCollapsed(s) && (got != s || written != 0):
			t.Fatalf("collapsed %q was rewritten (%d bytes)", s, written)
		case !isCollapsed(s) && (written != len(got) || written > len(s)):
			t.Fatalf("%q wrote %d bytes for %q", s, written, got)
		case isBlank(s) != (got == ""):
			t.Fatalf("isBlank(%q) = %v, collapsed %q", s, isBlank(s), got)
		}
		if !strings.HasPrefix(buf.String(), "earlier text") {
			t.Fatalf("earlier buffer text overwritten: %q", buf.String())
		}
	})
}

// TestChildrenCapsClipped checks that every Children slice is capped at
// its length: appending to one node's children, as a caller may, must
// leave every other node's children, its siblings' first, unchanged.
func TestChildrenCapsClipped(t *testing.T) {
	root, err := Parse(`<ul><li><b>1</b><i>2</i></li><li><b>3</b>4</li><li>5</li></ul><p>x<br>y</p>`)
	if err != nil {
		t.Fatal(err)
	}
	var all []*Node
	root.Walk(func(n *Node) bool { all = append(all, n); return true })
	snapshot := make(map[*Node][]*Node, len(all))
	for _, n := range all {
		snapshot[n] = append([]*Node(nil), n.Children...)
	}
	sentinel := &Node{Text: "appended"}
	for _, n := range all {
		if cap(n.Children) != len(n.Children) {
			t.Errorf("%s: Children len %d, cap %d", Path(n), len(n.Children), cap(n.Children))
		}
		_ = append(n.Children, sentinel)
		for _, v := range all {
			if len(v.Children) != len(snapshot[v]) {
				t.Fatalf("%s changed length after an append to %s", Path(v), Path(n))
			}
			for i, c := range v.Children {
				if c != snapshot[v][i] {
					t.Fatalf("child %d of %s overwritten by an append to %s", i+1, Path(v), Path(n))
				}
			}
		}
	}
	// The first li's next sibling, spelled out.
	lis := root.FindAll("li")
	li1, li2 := lis[0], lis[1]
	li1.Children = append(li1.Children, sentinel)
	if len(li2.Children) != 2 || li2.Children[0].Tag != "b" || li2.Children[1].Text != "4" {
		t.Errorf("second li children changed: %v", li2.Children)
	}
}

// TestBuildUnderNodeBudget checks the budget-capped pre-count: under
// every node budget from none left to more than enough, Build fails or
// succeeds exactly as the reference builder does, having charged the
// same nodes.
func TestBuildUnderNodeBudget(t *testing.T) {
	toks, err := htmlparse.Tokenize(nil, `<div><p>a  b</p> <p>c</p>tail</div><i>x</i> end`, nil)
	if err == nil {
		toks, err = tidy.NormalizeTokens(nil, toks, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	for budget := 1; budget <= 12; budget++ {
		lim := govern.Limits{MaxNodes: budget}
		g, wantG := govern.NewGuard(context.Background(), lim), govern.NewGuard(context.Background(), lim)
		root, err := Build(toks, g)
		want, wantErr := oracleBuild(toks, wantG)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("budget %d: error %v, reference %v", budget, err, wantErr)
		}
		_, nodes, _ := g.Charges()
		_, wantNodes, _ := wantG.Charges()
		if nodes != wantNodes {
			t.Errorf("budget %d: charged %d nodes, reference %d", budget, nodes, wantNodes)
		}
		if err == nil {
			if d := diffTrees(root, want); d != nil {
				t.Errorf("budget %d: %v", budget, d)
			}
		}
	}
}
