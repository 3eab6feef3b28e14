package tagtree_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/tagtree"
)

// TestPooledParseKeepsTreesIntact extracts distinct corpus pages on 8
// goroutines at once through core's public entry point, which parses
// each page on a pooled page whose scratch (the token arrays, tidy's
// stack) goes back to the pool while the tree's memory stays with the
// result, and holds every page's tree to tagtree.Parse of the same page
// once all of them are built. A tree that kept a reference into the
// pooled scratch would by then read another page's tokens, or the
// zeroed ones released scratch holds; under -race, the reuse itself is
// checked too.
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

// TestPooledPageMatchesUnreleased extracts every corpus page in turn on
// one page, each page's bytes read into the buffer the page before left
// and each parse reusing the buffers the parses before grew, and holds
// each result to the public entry point's, whose memory nothing reuses:
// discovery and then the learned rule's replay (a second parse of the
// same page) must give the same tree, node for node (tagtree.Parse of
// the page), and the same separator, subtree and objects.
func TestPooledPageMatchesUnreleased(t *testing.T) {
	ex := core.New(core.Options{})
	ctx := context.Background()
	p := core.GetPage()
	defer p.Release()
	pages := 0
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < 3; k++ {
			html := spec.Page(k).HTML
			name := fmt.Sprintf("%s page %d", spec.Name, k)
			want, wantErr := ex.Extract(html)
			p.SetBody(append(p.Buffer(), html...))
			got, err := ex.ExtractPage(ctx, p)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: pooled page error %v, unreleased %v", name, err, wantErr)
			}
			if err != nil {
				continue
			}
			checkSameResult(t, name+" (discovery)", html, got, want)
			rule := got.Rule(spec.Name)
			want, err = ex.ExtractWithRule(html, rule)
			if err != nil {
				t.Fatalf("%s: unreleased replay: %v", name, err)
			}
			if got, err = ex.ExtractPageWithRule(ctx, p, rule); err != nil {
				t.Fatalf("%s: pooled replay: %v", name, err)
			}
			checkSameResult(t, name+" (replay)", html, got, want)
			pages++
		}
	}
	if pages == 0 {
		t.Fatal("no corpus page extracted")
	}
}

// checkSameResult fails t when a pooled page's result differs from the
// unreleased one's, or its tree from tagtree.Parse of html.
func checkSameResult(t *testing.T, name, html string, got, want *core.Result) {
	t.Helper()
	ref, err := tagtree.Parse(html)
	if err != nil {
		t.Fatal(err)
	}
	if d := tagtree.DiffTrees(got.Tree, ref); d != nil {
		t.Fatalf("%s: pooled tree differs from tagtree.Parse: %v", name, d)
	}
	if got.SubtreePath != want.SubtreePath || got.Separator != want.Separator || len(got.Objects) != len(want.Objects) {
		t.Fatalf("%s: pooled %s/%s with %d objects, unreleased %s/%s with %d",
			name, got.SubtreePath, got.Separator, len(got.Objects), want.SubtreePath, want.Separator, len(want.Objects))
	}
	for i := range got.Objects {
		if g, w := got.Objects[i].Text(), want.Objects[i].Text(); g != w {
			t.Fatalf("%s: object %d is %q, unreleased %q", name, i+1, g, w)
		}
	}
}
