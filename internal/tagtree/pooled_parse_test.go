package tagtree_test

import (
	"context"
	"sync"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/tagtree"
)

// TestPooledParseKeepsTreesIntact extracts distinct corpus pages on 8
// goroutines at once through core, whose Phase 1 reuses pooled token
// arrays from page to page, and holds every page's tree to
// tagtree.Parse of the same page once all of them are built. A tree
// that kept a reference into a pooled array would by then read another
// page's tokens, or the zeroed ones a released array holds; under
// -race, the reuse itself is checked too.
func TestPooledParseKeepsTreesIntact(t *testing.T) {
	const workers, perWorker = 8, 6
	specs := corpus.AllSpecs()
	ex := core.New(core.Options{})
	type parsed struct {
		name string
		html string
		tree *tagtree.Node
	}
	out := make([][]parsed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				spec := specs[i%len(specs)]
				page := spec.Page(i / len(specs))
				res, err := ex.ExtractContext(context.Background(), page.HTML)
				if err != nil {
					t.Errorf("%s page %d: %v", spec.Name, i/len(specs), err)
					return
				}
				out[w] = append(out[w], parsed{spec.Name, page.HTML, res.Tree})
			}
		}(w)
	}
	wg.Wait()
	for _, pages := range out {
		for _, p := range pages {
			want, err := tagtree.Parse(p.html)
			if err != nil {
				t.Fatal(err)
			}
			if d := tagtree.DiffTrees(p.tree, want); d != nil {
				t.Errorf("%s: pooled parse differs from tagtree.Parse: %v", p.name, d)
			}
		}
	}
}
