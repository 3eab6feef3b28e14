// Per-phase pipeline benchmarks over the small/medium/large bench pages of
// internal/corpus. scripts/bench.sh runs exactly these and emits
// BENCH_pipeline.json (ns/op, B/op, allocs/op per phase) so successive PRs
// can diff the performance trajectory; the paper's Tables 16/17 make these
// phase costs a first-class result.
package omini_test

import (
	"testing"

	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/separator"
	"omini/internal/subtree"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// benchPages resolves the three bench pages once per benchmark.
func forEachBenchPage(b *testing.B, fn func(b *testing.B, html string)) {
	b.Helper()
	for _, size := range corpus.BenchSizes {
		page := corpus.BenchPage(size)
		b.Run(size, func(b *testing.B) {
			b.SetBytes(int64(len(page.HTML)))
			b.ReportAllocs()
			fn(b, page.HTML)
		})
	}
}

// benchSubtreeOf resolves the compound-chosen subtree of the page, outside
// the timed loop.
func benchSubtreeOf(b *testing.B, html string) *tagtree.Node {
	b.Helper()
	root, err := tagtree.Parse(html)
	if err != nil {
		b.Fatal(err)
	}
	ranked, err := subtree.Compound().Rank(root, nil)
	if err != nil || len(ranked) == 0 {
		b.Fatalf("no subtree candidates: %v", err)
	}
	return ranked[0].Node
}

// benchTokens lexes html, outside the timed loop.
func benchTokens(b *testing.B, html string) []htmlparse.Token {
	b.Helper()
	toks, err := htmlparse.Tokenize(html, nil)
	if err != nil {
		b.Fatal(err)
	}
	return toks
}

// BenchmarkTokenize measures the raw lexer pass alone.
func BenchmarkTokenize(b *testing.B) {
	forEachBenchPage(b, func(b *testing.B, html string) {
		for i := 0; i < b.N; i++ {
			if toks, err := htmlparse.Tokenize(html, nil); err != nil || len(toks) == 0 {
				b.Fatalf("no tokens: %v", err)
			}
		}
	})
}

// BenchmarkTidy measures syntactic normalization of a pre-lexed token
// stream — the tidy phase in isolation, as the pipeline runs it.
func BenchmarkTidy(b *testing.B) {
	forEachBenchPage(b, func(b *testing.B, html string) {
		raw := benchTokens(b, html)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if toks, err := tidy.NormalizeTokens(raw, nil); err != nil || len(toks) == 0 {
				b.Fatalf("no tokens: %v", err)
			}
		}
	})
}

// BenchmarkBuildTree measures tag tree construction from a pre-normalized
// token stream — the tree-build phase in isolation.
func BenchmarkBuildTree(b *testing.B) {
	forEachBenchPage(b, func(b *testing.B, html string) {
		toks, err := tidy.NormalizeTokens(benchTokens(b, html), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tagtree.Build(toks, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubtree measures the compound object-rich subtree ranking.
func BenchmarkSubtree(b *testing.B) {
	forEachBenchPage(b, func(b *testing.B, html string) {
		root, err := tagtree.Parse(html)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ranked, err := subtree.Compound().Rank(root, nil); err != nil || len(ranked) == 0 {
				b.Fatalf("no candidates: %v", err)
			}
		}
	})
}

// BenchmarkSeparator measures the five separator heuristics plus the
// probabilistic combination on the chosen subtree.
func BenchmarkSeparator(b *testing.B) {
	probs := combine.PaperProbs()
	forEachBenchPage(b, func(b *testing.B, html string) {
		sub := benchSubtreeOf(b, html)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cands, _, err := combine.Combine(sub, separator.All(), probs, nil); err != nil || len(cands) == 0 {
				b.Fatalf("no candidates: %v", err)
			}
		}
	})
}

// BenchmarkExtractE2E measures the full discovery pipeline per page — the
// end-to-end number the acceptance gate of this PR tracks.
func BenchmarkExtractE2E(b *testing.B) {
	forEachBenchPage(b, func(b *testing.B, html string) {
		e := core.New(core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Extract(html); err != nil {
				b.Fatal(err)
			}
		}
	})
}
