// External test package: the fuzz seeds come from the corpus generator,
// which depends on tagtree, so an internal test package would cycle.
package tagtree_test

import (
	"fmt"
	"testing"

	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/pathology"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// edgeSeeds are hand-written malformed documents, shared by FuzzParse's
// seed corpus and the differential test.
var edgeSeeds = []string{
	"",
	"just text, no tags at all",
	"<td><td><td>",
	"<p>a<p>b<p>c",
	"<html><html><body><body>x",
	"</div></div>",
	"<b><i>overlap</b></i>",
	"<table><tr><td>1<tr><td>2</table>",
	"<ul><li>a<li>b</ul><ol><li>c</ol>",
	"<script>a<b</script>after",
	"<!-- only a comment -->",
	"<br><br/><hr>",
	"text<div>more</div>text",
	"\x00<\x80>\xff",
	"<p>  lead\t and\r\n trail  </p><p> nbsp\u00a0wide\u3000 </p>",
	"<div>\xff bad\x80  utf8 </div>  \n  <div> </div>",
}

// pathologySeeds are the pathological generators (see
// testdata/pathological) scaled down to sizes a fuzz iteration can
// afford: deep nesting, attribute floods, entity runs, unclosed
// avalanches, and a fat text node.
func pathologySeeds() []string {
	return []string{
		pathology.DeepNesting(500),
		pathology.MegaAttributes(4, 16, 8),
		pathology.EntityBomb(600),
		pathology.UnclosedAvalanche(500),
		pathology.HugeTextNode(4 << 10),
	}
}

// FuzzParse checks Phase 1 end to end on arbitrary bytes: Parse must never
// panic, must never return a nil root without an error, every tree it
// does return must satisfy the structural invariants (metrics matching a
// fresh recount, correct Parent/Index links, acyclic) that the single-pass
// builder promises, and it must equal, node by node, the tree of the
// reference builder in oracle_test.go.
func FuzzParse(f *testing.F) {
	f.Add(corpus.BenchPage("small").HTML)
	f.Add(sitegen.Canoe().HTML)
	f.Add(sitegen.LOC().HTML)
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	for _, s := range pathologySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := tagtree.Parse(src)
		if err != nil {
			if root != nil {
				t.Fatalf("Parse returned both a root and error %v", err)
			}
		} else if root == nil {
			t.Fatal("Parse returned nil root without an error")
		} else if err := tagtree.Validate(root); err != nil {
			t.Fatalf("invalid tree for %q: %v", src, err)
		}
		checkOracle(t, fmt.Sprintf("%q", src), src, root, err)
	})
}

// checkOracle fails t when the tree (or error) Parse produced for src
// differs from the reference builder's.
func checkOracle(t *testing.T, name, src string, root *tagtree.Node, err error) {
	t.Helper()
	want, wantErr := tagtree.OracleParse(src)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if d := tagtree.DiffTrees(root, want); d != nil {
		t.Fatalf("%s: tree differs from the reference builder: %v", name, d)
	}
}

// corpusPagesPerSite is how many pages of every corpus site the
// differential test parses.
const corpusPagesPerSite = 24

// TestBuildMatchesOracle holds Build to the reference builder on every
// corpus site's pages, the bench pages, the pathology generators and
// the edge-case documents.
func TestBuildMatchesOracle(t *testing.T) {
	pages := map[string]string{}
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < corpusPagesPerSite; k++ {
			pages[fmt.Sprintf("%s page %d", spec.Name, k)] = spec.Page(k).HTML
		}
	}
	for _, size := range corpus.BenchSizes {
		pages["bench "+size] = corpus.BenchPage(size).HTML
	}
	for i, s := range pathologySeeds() {
		pages[fmt.Sprintf("pathology %d", i)] = s
	}
	for i, s := range edgeSeeds {
		pages[fmt.Sprintf("edge %d", i)] = s
	}
	pages["deep nesting 5000"] = pathology.DeepNesting(5000)
	pages["unclosed avalanche 5000"] = pathology.UnclosedAvalanche(5000)
	pages["huge text node 64k"] = pathology.HugeTextNode(64 << 10)
	for name, src := range pages {
		root, err := tagtree.Parse(src)
		checkOracle(t, name, src, root, err)
	}
}

// TestBuildAllocsConstant pins "O(1), not O(nodes)": building the small
// and the large bench page costs the same small number of allocations.
func TestBuildAllocsConstant(t *testing.T) {
	allocs := map[string]float64{}
	for _, size := range []string{"small", "large"} {
		toks, err := htmlparse.Tokenize(corpus.BenchPage(size).HTML, nil)
		if err == nil {
			toks, err = tidy.NormalizeTokens(toks, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		allocs[size] = testing.AllocsPerRun(10, func() {
			if _, err := tagtree.Build(toks, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs[size] > 10 {
			t.Errorf("Build on the %s bench page: %v allocs, want ≤ 10", size, allocs[size])
		}
	}
	if allocs["small"] != allocs["large"] {
		t.Errorf("Build allocs grow with the page: small %v, large %v", allocs["small"], allocs["large"])
	}
}
