// External test package: tagtree depends on tidy, so checking tidy's output
// at the tree level needs the reverse import.
package tidy_test

import (
	"testing"

	"omini/internal/corpus"
	"omini/internal/tagtree"
)

// TestNormalizedStreamBuildsValidTrees feeds the normalizer's output to
// the tree builder (tagtree.Parse) for every corpus bench page and for a
// handful of malformed snippets, and checks the resulting trees with the
// exported invariant validator: a balanced stream that builds a corrupt
// tree would poison every heuristic downstream.
func TestNormalizedStreamBuildsValidTrees(t *testing.T) {
	var inputs []string
	for _, size := range corpus.BenchSizes {
		inputs = append(inputs, corpus.BenchPage(size).HTML)
	}
	inputs = append(inputs,
		"<td>a<td>b<td>c",
		"<b><i>overlap</b></i> trailing",
		"<ul><li>1<li>2<li>3",
		"bare text then <div>a div</div>",
	)
	for _, src := range inputs {
		root, err := tagtree.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%.40q): %v", src, err)
		}
		if err := tagtree.Validate(root); err != nil {
			t.Errorf("input %.40q: %v", src, err)
		}
	}
}
