package subtree

import (
	"fmt"
	"strings"
	"testing"

	"omini/internal/tagtree"
)

// chromePage builds a page in the shape that defeats HF (Section 4.1's
// failure mode): a navigation menu with navLinks bare links, then a result
// region with items objects, each carrying several tags and realText bytes
// of content.
func chromePage(navLinks, items int) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>search</title></head><body>`)
	b.WriteString(`<div>`)
	for i := 0; i < navLinks; i++ {
		fmt.Fprintf(&b, `<a href="/nav%d">n%d</a>`, i, i)
	}
	b.WriteString(`</div><form>`)
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, `<table><tr><td><font><b><a href="/item%d">Result item %d</a></b>`+
			`<br>A reasonably long description of result %d with plenty of text to weigh the subtree.`+
			`</font></td></tr></table>`, i, i, i)
	}
	b.WriteString(`</form></body></html>`)
	return b.String()
}

func parse(t *testing.T, src string) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return root
}

// nodeByTag returns the unique node with the given tag.
// rank runs h with no guard, failing the test on an error a nil guard
// must never produce.
func rank(t testing.TB, h Heuristic, root *tagtree.Node) []Ranked {
	t.Helper()
	ranked, err := h.Rank(root, nil)
	if err != nil {
		t.Fatalf("%s.Rank: %v", h.Name(), err)
	}
	return ranked
}

func nodeByTag(t *testing.T, root *tagtree.Node, tag string) *tagtree.Node {
	t.Helper()
	nodes := root.FindAll(tag)
	if len(nodes) != 1 {
		t.Fatalf("found %d %q nodes, want 1", len(nodes), tag)
	}
	return nodes[0]
}

func TestHFRanksByFanout(t *testing.T) {
	root := parse(t, chromePage(30, 12))
	ranked := rank(t, HF(), root)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	nav := nodeByTag(t, root, "div")
	if ranked[0].Node != nav {
		t.Errorf("HF top = %s, want the 30-link nav div (HF's documented failure)",
			tagtree.Path(ranked[0].Node))
	}
	if ranked[0].Score != 30 {
		t.Errorf("HF score = %v, want 30", ranked[0].Score)
	}
}

func TestGSIPrefersContentRegion(t *testing.T) {
	root := parse(t, chromePage(30, 12))
	form := nodeByTag(t, root, "form")
	ranked := rank(t, GSI(), root)
	if ranked[0].Node != form {
		t.Errorf("GSI top = %s, want form", tagtree.Path(ranked[0].Node))
	}
}

func TestLTCPrefersContentRegion(t *testing.T) {
	root := parse(t, chromePage(30, 12))
	form := nodeByTag(t, root, "form")
	ranked := rank(t, LTC(), root)
	if ranked[0].Node != form {
		t.Errorf("LTC top = %s, want form", tagtree.Path(ranked[0].Node))
	}
}

func TestCompoundPrefersContentRegion(t *testing.T) {
	root := parse(t, chromePage(30, 12))
	form := nodeByTag(t, root, "form")
	if got := rank(t, Compound(), root)[0].Node; got != form {
		t.Errorf("Compound top = %s, want form", tagtree.Path(got))
	}
}

func TestGSIScoreFormula(t *testing.T) {
	// A node of size 120 with fanout 3 has size increase 120 - 120/3 = 80.
	root := parse(t, `<html><body>`+
		`<p>`+strings.Repeat("a", 40)+`</p>`+
		`<p>`+strings.Repeat("b", 40)+`</p>`+
		`<p>`+strings.Repeat("c", 40)+`</p>`+
		`</body></html>`)
	body := nodeByTag(t, root, "body")
	if got := sizeIncrease(body); got != 80 {
		t.Errorf("sizeIncrease(body) = %v, want 80", got)
	}
	leafP := root.FindAll("p")[0].Children[0]
	if got := sizeIncrease(leafP); got != 0 {
		t.Errorf("sizeIncrease(content) = %v, want 0", got)
	}
}

func TestLTCAncestorReRanking(t *testing.T) {
	// body has 2 child forms; the second form has 5 child tables. The body
	// subtree out-counts the form on raw tags, but the form's highest child
	// appearance count (5 tables) beats body's (2 forms), so LTC must rank
	// the form first — the Section 4.3 re-examination.
	var b strings.Builder
	b.WriteString(`<html><body><form><input></form><form>`)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `<table><tr><td>item %d text body</td></tr></table>`, i)
	}
	b.WriteString(`</form></body></html>`)
	root := parse(t, b.String())
	forms := root.FindAll("form")
	ranked := rank(t, LTC(), root)
	if ranked[0].Node != forms[1] {
		t.Errorf("LTC top = %s, want the 5-table form", tagtree.Path(ranked[0].Node))
	}
}

func TestRankingsAreDeterministic(t *testing.T) {
	root := parse(t, chromePage(10, 6))
	for _, h := range []Heuristic{HF(), GSI(), LTC(), Compound()} {
		first := rank(t, h, root)
		for i := 0; i < 3; i++ {
			again := rank(t, h, root)
			if len(first) != len(again) {
				t.Fatalf("%s: ranking length changed", h.Name())
			}
			for j := range first {
				if first[j].Node != again[j].Node {
					t.Fatalf("%s: rank %d differs between runs", h.Name(), j)
				}
			}
		}
	}
}

func TestRankedScoresMonotone(t *testing.T) {
	root := parse(t, chromePage(20, 8))
	// Compound is excluded: its minimality pass deliberately promotes a
	// descendant above a slightly higher-volume ancestor.
	for _, h := range []Heuristic{HF(), GSI()} {
		ranked := rank(t, h, root)
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score > ranked[i-1].Score {
				t.Errorf("%s: score increases at rank %d (%v > %v)",
					h.Name(), i, ranked[i].Score, ranked[i-1].Score)
			}
		}
	}
}

func TestCandidatesExcludeLeavesAndContent(t *testing.T) {
	root := parse(t, `<html><body><p>text</p><br></body></html>`)
	for _, c := range candidates(root) {
		if c.IsContent() {
			t.Error("content node among candidates")
		}
		if c.Fanout() == 0 {
			t.Errorf("childless node %s among candidates", tagtree.Path(c))
		}
	}
}

func TestTopHelper(t *testing.T) {
	root := parse(t, chromePage(5, 5))
	ranked := rank(t, HF(), root)
	if got := Top(ranked, 3); len(got) != 3 {
		t.Errorf("Top(3) returned %d", len(got))
	}
	if got := Top(ranked[:2], 5); len(got) != 2 {
		t.Errorf("Top beyond length returned %d", len(got))
	}
}

func TestExtractOnTinyDocument(t *testing.T) {
	root := parse(t, `<html><body>x</body></html>`)
	ranked := rank(t, Compound(), root)
	if len(ranked) == 0 || ranked[0].Node == nil {
		t.Fatal("Compound ranked no subtree")
	}
	if ranked[0].Node.IsContent() {
		t.Error("Compound ranked a content node first")
	}
}

func TestHeuristicNames(t *testing.T) {
	names := map[string]Heuristic{
		"HF": HF(), "GSI": GSI(), "LTC": LTC(), "Compound": Compound(),
	}
	for want, h := range names {
		if h.Name() != want {
			t.Errorf("Name() = %q, want %q", h.Name(), want)
		}
	}
}

// Ties in every heuristic must prefer the deeper (minimal) subtree.
func TestTieBreakPrefersMinimalSubtree(t *testing.T) {
	// div > ul > 3 li; div has only ul as child, so fanout(div)=1,
	// fanout(ul)=3. For GSI, div and ul have the same size but different
	// fanout; craft equal scores via a wrapper chain for HF instead:
	// both section and ul here have fanout 1 and 3 — use nested singles.
	root := parse(t, `<html><body><div><div><ul><li>aaaa</li><li>bbbb</li><li>cccc</li></ul></div></div></body></html>`)
	ul := nodeByTag(t, root, "ul")
	ranked := rank(t, GSI(), root)
	// outer div, inner div and ul all have nodeSize 12; ul has the larger
	// size increase (12-4=8 vs 12-12=0), so ul must be first.
	if ranked[0].Node != ul {
		t.Errorf("GSI top = %s, want ul", tagtree.Path(ranked[0].Node))
	}
}
