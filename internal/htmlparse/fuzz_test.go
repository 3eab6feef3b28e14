// External test package: the fuzz targets seed from corpus pages, and
// package corpus depends on htmlparse transitively (via sitegen and
// tagtree), so an internal test package would cycle.
package htmlparse_test

import (
	"reflect"
	"testing"

	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/pathology"
	"omini/internal/tagtree"
)

// nastySnippets are small inputs aimed at the lexer's edge cases: truncated
// markup, raw-text elements, mismatched quotes, stray angle brackets,
// upper-case spellings, and non-ASCII bytes.
var nastySnippets = []string{
	"",
	"<",
	"<a",
	"</",
	"<!",
	"<!--",
	"<!-- unterminated",
	"<!DOCTYPE html><html><body>x</body></html>",
	"<p class=x>hi<P CLASS=Y>there</p>",
	"<script>if (a<b) { x() }</script>",
	"<script>never closed",
	"<style>p { color: red }</style><textarea><b>not bold</b></textarea>",
	"<div><span>a<div>b</span></div>",
	"plain text &amp; entities &unknown; &#65; &#x41; &#xffffffff;",
	"<td><td><td>",
	"<a href='x\" y>z</a>",
	"<a href=\"unterminated>text",
	"<ul><li>a<li>b<li>c</ul>",
	"<?xml version=\"1.0\"?><html>",
	"<?>",
	"<br/><hr / ><img src=x />",
	"< notatag> a < b > c",
	"\x00\xff<\x80tag>",
	"<table><tr><td>1<tr><td>2</table>",
	"<B><I>overlap</B></I>",
	"<p 0=1 = ==>odd attrs</p>",
}

func addFuzzSeeds(f *testing.F) {
	f.Add(corpus.BenchPage("small").HTML)
	for _, s := range nastySnippets {
		f.Add(s)
	}
	// Scaled-down instances of the pathological corpus (see
	// testdata/pathological): same attack shapes, fuzz-friendly sizes.
	f.Add(pathology.DeepNesting(500))
	f.Add(pathology.MegaAttributes(4, 16, 8))
	f.Add(pathology.EntityBomb(600))
	f.Add(pathology.UnclosedAvalanche(500))
	f.Add(pathology.HugeTextNode(4 << 10))
}

// FuzzTokenize checks the lexer's safety net on arbitrary bytes: it must
// never panic, offsets must stay in bounds and non-decreasing, every tag
// token's offset must point at the '<' that opened it, and tokenizing is
// deterministic.
func FuzzTokenize(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := htmlparse.Tokenize(src, nil)
		if err != nil {
			t.Fatalf("Tokenize(%q, nil): %v", src, err)
		}
		prev := 0
		for i := range toks {
			tok := &toks[i]
			if tok.Offset < prev || tok.Offset > len(src) {
				t.Fatalf("token %d (%v %q): offset %d out of range (prev %d, len %d)",
					i, tok.Type, tok.Data, tok.Offset, prev, len(src))
			}
			prev = tok.Offset
			switch tok.Type {
			case htmlparse.StartTagToken, htmlparse.SelfClosingTagToken:
				if src[tok.Offset] != '<' {
					t.Fatalf("token %d (%v %q): offset %d does not round-trip to '<'",
						i, tok.Type, tok.Data, tok.Offset)
				}
				if tok.Data == "" {
					t.Fatalf("token %d: empty tag name", i)
				}
			case htmlparse.EndTagToken:
				// End tags synthesized at the end of a raw-text region point
				// at the closing tag, which always starts with '<'.
				if src[tok.Offset] != '<' {
					t.Fatalf("end tag %d (%q): offset %d does not round-trip to '<'",
						i, tok.Data, tok.Offset)
				}
			}
		}
		if again, _ := htmlparse.Tokenize(src, nil); !reflect.DeepEqual(toks, again) {
			t.Fatalf("tokenizing is not deterministic for %q", src)
		}
	})
}

// TestTokenizeTreeInvariants drives lexer output through the whole Phase 1
// pipeline for every corpus bench page and checks the resulting tree with
// the exported invariant validator, pinning the lexer's arena-backed
// attribute slices and interned names to tree-level correctness.
func TestTokenizeTreeInvariants(t *testing.T) {
	for _, size := range corpus.BenchSizes {
		page := corpus.BenchPage(size)
		root, err := tagtree.Parse(page.HTML)
		if err != nil {
			t.Fatalf("%s: %v", page.Name, err)
		}
		if err := tagtree.Validate(root); err != nil {
			t.Errorf("%s: %v", page.Name, err)
		}
	}
	for _, s := range nastySnippets {
		root, err := tagtree.Parse(s)
		if err != nil {
			continue
		}
		if err := tagtree.Validate(root); err != nil {
			t.Errorf("snippet %q: %v", s, err)
		}
	}
}
