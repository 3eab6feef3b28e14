// Benchmarks: one per table/figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each benchmark
// measures the computation that regenerates its table; the printable tables
// themselves come from cmd/ominibench, and paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package omini_test

import (
	"testing"

	"omini"
	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/eval"
	"omini/internal/htmlparse"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// benchCorpus keeps benchmark corpora small enough for -bench runs while
// exercising every site.
func benchCorpus() *corpus.Corpus {
	return &corpus.Corpus{PagesPerSite: 4}
}

func benchHeuristics() []separator.Heuristic {
	return append(separator.All(), separator.HC(), separator.IT())
}

func mustPrepare(b *testing.B, sites []corpus.SitePages) []eval.PreparedSite {
	b.Helper()
	prep, err := eval.Prepare(sites, benchHeuristics())
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

func canoeTree(b *testing.B) *tagtree.Node {
	b.Helper()
	root, err := tagtree.Parse(sitegen.Canoe().HTML)
	if err != nil {
		b.Fatal(err)
	}
	return root
}

func truthSubtree(b *testing.B, page sitegen.Page) *tagtree.Node {
	b.Helper()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		b.Fatal(err)
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		b.Fatalf("truth path %q unresolvable", page.Truth.SubtreePath)
	}
	return sub
}

// separatorRank indexes sub and ranks it with h, inside the timed loop as
// the pipeline's separator phase does.
func separatorRank(b *testing.B, h separator.Heuristic, sub *tagtree.Node) []separator.Ranked {
	st, err := separator.NewStats(sub, nil)
	if err != nil {
		b.Fatal(err)
	}
	return h.Rank(st)
}

// BenchmarkTable1SubtreeHeuristics ranks the canoe tree with HF, GSI, LTC
// and the compound algorithm (Table 1).
func BenchmarkTable1SubtreeHeuristics(b *testing.B) {
	root := canoeTree(b)
	heuristics := []subtree.Heuristic{subtree.HF(), subtree.GSI(), subtree.LTC(), subtree.Compound()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range heuristics {
			if ranked, err := h.Rank(root, nil); err != nil || len(ranked) == 0 {
				b.Fatalf("empty ranking: %v", err)
			}
		}
	}
}

// BenchmarkTable2SD computes the SD ranking on the LOC subtree (Table 2).
func BenchmarkTable2SD(b *testing.B) {
	sub := truthSubtree(b, sitegen.LOC())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranked := separatorRank(b, separator.SD(), sub); len(ranked) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable3RP computes the RP pair ranking on the canoe subtree
// (Table 3).
func BenchmarkTable3RP(b *testing.B) {
	sub := truthSubtree(b, sitegen.Canoe())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs := separator.RPPairs(sub); len(pairs) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable6SB computes sibling pairs on both replica pages (Table 6).
func BenchmarkTable6SB(b *testing.B) {
	canoe := truthSubtree(b, sitegen.Canoe())
	loc := truthSubtree(b, sitegen.LOC())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(separator.SBPairs(canoe)) == 0 || len(separator.SBPairs(loc)) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable8PP enumerates partial paths and the PP ranking (Tables
// 7-8).
func BenchmarkTable8PP(b *testing.B) {
	sub := truthSubtree(b, sitegen.Canoe())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranked := separatorRank(b, separator.PP(), sub); len(ranked) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable10TestSet measures the per-heuristic rank-distribution
// evaluation over the test collection (Table 10).
func BenchmarkTable10TestSet(b *testing.B) {
	prep := mustPrepare(b, benchCorpus().TestSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range separator.All() {
			d := eval.HeuristicDist(h.Name(), prep)
			if d.Success <= 0 {
				b.Fatal("zero success")
			}
		}
	}
}

// BenchmarkTable11Combinations sweeps all 26 heuristic combinations
// (Table 11).
func BenchmarkTable11Combinations(b *testing.B) {
	prep := mustPrepare(b, benchCorpus().TestSet())
	table := eval.MeasureProbs(prep, benchHeuristics())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sweep := eval.SweepCombinations(separator.All(), table, prep); len(sweep) != 26 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkTable13ExperimentalSet evaluates the five heuristics plus RSIPB
// over the experimental collection (Table 13).
func BenchmarkTable13ExperimentalSet(b *testing.B) {
	c := benchCorpus()
	testPrep := mustPrepare(b, c.TestSet())
	table := eval.MeasureProbs(testPrep, benchHeuristics())
	prep := mustPrepare(b, c.ExperimentalSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := eval.CombinationDist(combine.RSIPB(), table, prep)
		if d.Success <= 0 {
			b.Fatal("zero success")
		}
	}
}

// BenchmarkTable14PrecisionRecall computes success/precision/recall for the
// five heuristics on the test set (Table 14; Table 15 is the same code on
// the experimental set).
func BenchmarkTable14PrecisionRecall(b *testing.B) {
	prep := mustPrepare(b, benchCorpus().TestSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range separator.All() {
			d := eval.HeuristicDist(h.Name(), prep)
			if d.Precision < d.Recall-1e-9 {
				b.Fatal("precision below recall")
			}
		}
	}
}

// BenchmarkTable16FullPipeline measures one full-discovery extraction per
// iteration — the per-page cost behind Table 16 (fetch excluded: that phase
// is network-bound and measured by cmd/ominibench).
func BenchmarkTable16FullPipeline(b *testing.B) {
	page := sitegen.Canoe()
	e := core.New(core.Options{})
	b.SetBytes(int64(len(page.HTML)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Extract(page.HTML); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable17CachedRules measures the cached-rule fast path — Table 17.
// Comparing with BenchmarkTable16FullPipeline shows the speedup of learned
// rules.
func BenchmarkTable17CachedRules(b *testing.B) {
	page := sitegen.Canoe()
	e := core.New(core.Options{})
	res, err := e.Extract(page.HTML)
	if err != nil {
		b.Fatal(err)
	}
	rule := res.Rule(page.Site)
	b.SetBytes(int64(len(page.HTML)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExtractWithRule(page.HTML, rule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable19BYUComparison evaluates Omini's RSIPB and BYU's HTRS on
// the comparison sites (Table 19).
func BenchmarkTable19BYUComparison(b *testing.B) {
	c := benchCorpus()
	table := eval.MeasureProbs(mustPrepare(b, c.TestSet()), benchHeuristics())
	prep := mustPrepare(b, c.ComparisonSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omini := eval.CombinationDist(combine.RSIPB(), table, prep)
		byu := eval.CombinationDist(combine.HTRS(), table, prep)
		if omini.Success <= byu.Success {
			b.Fatal("Omini did not beat BYU")
		}
	}
}

// BenchmarkTable20BYUCombos evaluates every BYU heuristic combination on
// the test set (Table 20).
func BenchmarkTable20BYUCombos(b *testing.B) {
	c := benchCorpus()
	prep := mustPrepare(b, c.TestSet())
	table := eval.MeasureProbs(prep, benchHeuristics())
	combos := combine.Combinations(combine.HTRS().Heuristics, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, combo := range combos {
			d := eval.CombinationDist(combo, table, prep)
			if d.Success <= 0 {
				b.Fatal("zero success")
			}
		}
	}
}

// BenchmarkFigureTreeConstruction measures Phase 1 alone — tokenize,
// normalize, and build the tag tree of the canoe replica (Figures 4-5).
func BenchmarkFigureTreeConstruction(b *testing.B) {
	html := sitegen.Canoe().HTML
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tagtree.Parse(html); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSubtreeCompoundVsHF compares the cost of the compound
// subtree heuristic against plain HF; the quality comparison is the
// "subtree" table of cmd/ominibench.
func BenchmarkAblationSubtreeCompoundVsHF(b *testing.B) {
	root := canoeTree(b)
	b.Run("HF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subtree.HF().Rank(root, nil)
		}
	})
	b.Run("Compound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subtree.Compound().Rank(root, nil)
		}
	})
}

// BenchmarkAblationRefinement measures extraction with and without Phase 3
// refinement.
func BenchmarkAblationRefinement(b *testing.B) {
	page := sitegen.Canoe()
	b.Run("with-refinement", func(b *testing.B) {
		e := core.New(core.Options{})
		for i := 0; i < b.N; i++ {
			if _, err := e.Extract(page.HTML); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-refinement", func(b *testing.B) {
		e := core.New(core.Options{SkipRefine: true})
		for i := 0; i < b.N; i++ {
			if _, err := e.Extract(page.HTML); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNormalization measures the tidy pass against raw token
// tree building (quality effects are covered by core tests).
func BenchmarkAblationNormalization(b *testing.B) {
	html := sitegen.LOC().HTML
	b.Run("normalized", func(b *testing.B) {
		b.SetBytes(int64(len(html)))
		for i := 0; i < b.N; i++ {
			toks, _ := htmlparse.Tokenize(nil, html, nil)
			tidy.NormalizeTokens(nil, toks, nil)
		}
	})
	b.Run("public-api", func(b *testing.B) {
		b.SetBytes(int64(len(html)))
		for i := 0; i < b.N; i++ {
			if _, err := omini.Extract(html); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCandidateScope compares child-level candidate statistics
// (the paper's choice) against a full-descendant scan, justifying the
// Section 5 design decision.
func BenchmarkAblationCandidateScope(b *testing.B) {
	sub := truthSubtree(b, sitegen.Canoe())
	b.Run("children-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			separatorRank(b, separator.HC(), sub)
		}
	})
	b.Run("all-descendants", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := make(map[string]int)
			sub.Walk(func(n *tagtree.Node) bool {
				if !n.IsContent() {
					counts[n.Tag]++
				}
				return true
			})
			if len(counts) == 0 {
				b.Fatal("empty")
			}
		}
	})
}
