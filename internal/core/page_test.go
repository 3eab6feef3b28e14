package core

import (
	"context"
	"reflect"
	"testing"

	"omini/internal/corpus"
	"omini/internal/pathology"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

// FuzzPooledParse runs Phase 1 on two inputs in turn on one pooled
// page, the second parse reusing the first one's buffers, and holds
// each tree to tagtree.Parse of the same input, which builds in fresh
// memory: a byte, node or attribute left behind by the first input, or
// a buffer the second parse outgrew, shows as a difference.
func FuzzPooledParse(f *testing.F) {
	small, canoe, loc := corpus.BenchPage("small").HTML, sitegen.Canoe().HTML, sitegen.LOC().HTML
	for _, seed := range [][2]string{
		{small, canoe},
		{canoe, small},
		{loc, ""},
		{"", loc},
		{"<TD>A<TD>b &amp; c", "<p a=1 b=2 c=3>x</p>"},
		{"<p>  lead\t and\r\n trail  </p>", "<div>\xff bad\x80  utf8 </div>"},
		{pathology.DeepNesting(200), pathology.MegaAttributes(4, 16, 8)},
		{pathology.HugeTextNode(4 << 10), "<b><i>overlap</b></i>"},
	} {
		f.Add(seed[0], seed[1])
	}
	e := New(Options{})
	f.Fuzz(func(t *testing.T, a, b string) {
		p := GetPage()
		defer p.Release()
		for _, src := range []string{a, b} {
			p.SetBody(append(p.Buffer(), src...))
			root, err := e.parse(context.Background(), p, nil)
			want, wantErr := tagtree.Parse(src)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q after %q: pooled parse error %v, fresh parse error %v", src, a, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(root, want) {
				t.Fatalf("%q after %q: the pooled page's tree differs from a fresh parse", src, a)
			}
		}
	})
}

// TestReleaseZeroesThePage: once a page is released, a reference that
// outlived it reads zeroes, not the page: its text, the tree's nodes,
// and the collapsed text.
func TestReleaseZeroesThePage(t *testing.T) {
	p := GetPage()
	p.SetBody(append(p.Buffer(), "<ul><li>one  two</li><li a=b>three</li></ul>"...))
	html := p.HTML()
	root, err := New(Options{}).parse(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	li := tagtree.FindPath(root, "html[1].body[1].ul[1].li[1]")
	if li == nil || li.Children[0].Text != "one two" {
		t.Fatalf("parsed tree lacks its first item: %+v", li)
	}
	text := li.Children[0].Text
	p.Release()
	for _, s := range []string{html, text} {
		for i := 0; i < len(s); i++ {
			if s[i] != 0 {
				t.Fatalf("released page still reads %q", s)
			}
		}
	}
	if root.Tag != "" || len(root.Children) != 0 || li.Tag != "" {
		t.Fatalf("released tree still reads root %q with %d children, item %q", root.Tag, len(root.Children), li.Tag)
	}
}

// TestLentPageParsesIntoItsOwnArenas: a public entry point lends a
// pooled page that may hold the arenas of a large page served before.
// Its parse must make arenas sized to its own page, so a result of a
// small page does not pin the large one's memory, and the page must
// get the pooled arenas back for the next request.
func TestLentPageParsesIntoItsOwnArenas(t *testing.T) {
	e, ctx := New(Options{}), context.Background()
	p := new(Page)
	p.SetBody([]byte(corpus.BenchPage("large").HTML))
	if _, err := e.parse(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	// What Release leaves, without handing the page to the pool.
	p.lex.Reset("")
	p.tree.Reset()
	pooled := arenaCaps(p.arenas)

	kept := p.lend(corpus.BenchPage("small").HTML)
	if _, err := e.parse(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if got := arenaCaps(kept); got != pooled {
		t.Fatalf("set-aside arenas hold %v, want the pooled %v", got, pooled)
	}
	own := arenaCaps(p.arenas)
	for i := range own {
		if own[i] == 0 || own[i] >= pooled[i] {
			t.Fatalf("the small page parsed into arenas of %v, want each nonzero and under the pooled %v", own, pooled)
		}
	}
}

// arenaCaps reports the capacities of the attribute arena and of the
// node and text slabs.
func arenaCaps(a arenas) [3]int {
	lex, tree := reflect.ValueOf(a.lex), reflect.ValueOf(a.tree)
	return [3]int{lex.FieldByName("attrs").Cap(), tree.FieldByName("nodes").Cap(), tree.FieldByName("text").Cap()}
}
