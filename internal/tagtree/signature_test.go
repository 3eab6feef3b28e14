package tagtree_test

import (
	"fmt"
	"maps"
	"testing"

	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/tagtree"
	"omini/internal/tidy"
	"omini/internal/wrapgen"
)

// checkSignature fails t when PathSignature of n differs from the
// reference's.
func checkSignature(t *testing.T, name string, n *tagtree.Node) {
	t.Helper()
	got, want := tagtree.PathSignature(n), tagtree.OraclePathSignature(n)
	if !maps.Equal(got, want) {
		t.Fatalf("%s: PathSignature has %d paths, reference %d, or counts differ", name, len(got), len(want))
	}
}

// oracleDrift is wrapgen.DriftScore over the reference signature code.
func oracleDrift(sig tagtree.Signature, root *tagtree.Node) float64 {
	if len(sig) == 0 || root == nil {
		return 0
	}
	return 1 - tagtree.OracleSimilarity(sig, tagtree.OraclePathSignature(root))
}

// checkDrift fails t when DriftScore differs from the reference's by
// as much as one bit.
func checkDrift(t *testing.T, name string, sig tagtree.Signature, root *tagtree.Node) {
	t.Helper()
	if got, want := wrapgen.DriftScore(sig, root), oracleDrift(sig, root); got != want {
		t.Fatalf("%s: DriftScore = %v, reference %v", name, got, want)
	}
}

func mustParsePage(t *testing.T, name, src string) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return root
}

// TestPathSignatureMatchesOracle holds PathSignature to the reference on
// every corpus site's pages, the bench pages and the pathology
// generators, anchored at the root, and on the small bench page anchored
// at every tag node.
func TestPathSignatureMatchesOracle(t *testing.T) {
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
	for name, src := range pages {
		checkSignature(t, name, mustParsePage(t, name, src))
	}
	small := mustParsePage(t, "bench small", corpus.BenchPage("small").HTML)
	for _, n := range small.TagNodes() {
		checkSignature(t, "bench small at "+tagtree.Path(n), n)
	}
	checkSignature(t, "nil", nil)
	checkSignature(t, "content node", &tagtree.Node{Text: "x"})
}

// TestDriftScoreMatchesOracle holds DriftScore to the reference, to the
// bit, on same-site and cross-site page pairs of every corpus site, and
// on empty signatures, missing trees, content-only trees and signatures
// with zero or negative counts (a hand-edited store can hold them).
func TestDriftScoreMatchesOracle(t *testing.T) {
	specs := corpus.AllSpecs()
	for i, spec := range specs {
		train := mustParsePage(t, spec.Name, spec.Page(0).HTML)
		sig := tagtree.OraclePathSignature(train)
		checkDrift(t, spec.Name+" itself", sig, train)
		for k := 1; k < 4; k++ {
			checkDrift(t, fmt.Sprintf("%s page %d", spec.Name, k), sig, mustParsePage(t, spec.Name, spec.Page(k).HTML))
		}
		other := specs[(i+1)%len(specs)]
		checkDrift(t, spec.Name+" vs "+other.Name, sig, mustParsePage(t, other.Name, other.Page(0).HTML))
	}
	page := mustParsePage(t, "bench small", corpus.BenchPage("small").HTML)
	sig := tagtree.OraclePathSignature(page)
	content := &tagtree.Node{Text: "only content"}
	odd := tagtree.Signature{"html": 0, "html.body": -3, "html.body.table": 2, "nowhere": -1}
	for name, c := range map[string]struct {
		sig  tagtree.Signature
		root *tagtree.Node
	}{
		"empty signature":           {tagtree.Signature{}, page},
		"nil signature":             {nil, page},
		"nil tree":                  {sig, nil},
		"content-only tree":         {sig, content},
		"odd counts":                {odd, page},
		"odd counts, content tree":  {odd, content},
		"all-zero counts, content":  {tagtree.Signature{"html": 0}, content},
		"all-negative counts, page": {tagtree.Signature{"html": -1, "x": -2}, page},
	} {
		checkDrift(t, name, c.sig, c.root)
	}
}

// FuzzPathSignature checks the path trie end to end on arbitrary bytes:
// for every tree Tokenize → tidy → Build produces, PathSignature equals
// the reference signature, and the drift score of the tree against its
// own signature and against the small bench page's equals the
// reference's to the bit.
func FuzzPathSignature(f *testing.F) {
	bench := corpus.BenchPage("small").HTML
	f.Add(bench)
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	for _, s := range pathologySeeds() {
		f.Add(s)
	}
	benchRoot, err := tagtree.Parse(bench)
	if err != nil {
		f.Fatal(err)
	}
	benchSig := tagtree.OraclePathSignature(benchRoot)
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := htmlparse.Tokenize(nil, src, nil)
		if err == nil {
			toks, err = tidy.NormalizeTokens(nil, toks, nil)
		}
		var root *tagtree.Node
		if err == nil {
			root, err = tagtree.Build(toks, nil)
		}
		if err != nil {
			return
		}
		name := fmt.Sprintf("%q", src)
		checkSignature(t, name, root)
		checkDrift(t, name+" vs itself", tagtree.OraclePathSignature(root), root)
		checkDrift(t, name+" vs bench", benchSig, root)
	})
}
