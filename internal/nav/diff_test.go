package nav

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"omini/internal/corpus"
	"omini/internal/htmlparse"
	"omini/internal/tagtree"
)

// corpusPagesPerSite is how many pages of every corpus site the
// differential and allocation tests parse.
const corpusPagesPerSite = 24

// corpusTrees parses the first corpusPagesPerSite pages of every corpus
// site.
func corpusTrees(tb testing.TB) []*tagtree.Node {
	tb.Helper()
	var roots []*tagtree.Node
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < corpusPagesPerSite; k++ {
			root, err := tagtree.Parse(spec.Page(k).HTML)
			if err != nil {
				tb.Fatalf("%s page %d: %v", spec.Name, k, err)
			}
			roots = append(roots, root)
		}
	}
	return roots
}

// checkAgainstOracle fails t when FindNext or FindPagination disagrees
// with the reference implementation on root.
func checkAgainstOracle(t *testing.T, name string, root *tagtree.Node) {
	t.Helper()
	href, ok := FindNext(root)
	wantHref, wantOK := oracleFindNext(root)
	if href != wantHref || ok != wantOK {
		t.Errorf("%s: FindNext = %q, %v; oracle %q, %v", name, href, ok, wantHref, wantOK)
	}
	bar, want := FindPagination(root), oracleFindPagination(root)
	switch {
	case (bar == nil) != (want == nil):
		t.Errorf("%s: FindPagination = %+v; oracle %+v", name, bar, want)
	case bar != nil && (bar.Current != want.Current || !reflect.DeepEqual(bar.Links, want.Links)):
		t.Errorf("%s: FindPagination = %+v; oracle %+v", name, *bar, *want)
	}
}

func TestFindNextMatchesOracleOnCorpus(t *testing.T) {
	roots := corpusTrees(t)
	if want := len(corpus.AllSpecs()) * corpusPagesPerSite; len(roots) != want {
		t.Fatalf("parsed %d pages, want %d", len(roots), want)
	}
	found := 0
	for i, root := range roots {
		checkAgainstOracle(t, fmt.Sprintf("corpus page %d", i), root)
		if _, ok := oracleFindNext(root); ok {
			found++
		}
	}
	if found == 0 {
		t.Error("no corpus page has a next link; the comparison proves nothing")
	}
}

// TestFindNextMatchesOracleOnEdgeText covers what the streaming readers
// must reproduce of strings.Fields/ToLower and strconv.Atoi/TrimSpace.
func TestFindNextMatchesOracleOnEdgeText(t *testing.T) {
	long := "Next " + strings.Repeat("page of results ", 4)
	anchors := []string{
		"Next", "NEXT  page", " \t next\n10 ", "Ne<b>xt</b> <i>20</i>", "<b>next</b><i></i> results",
		"next\u00a0page", "next\u3000results", "\u2003more\u2003", "\u0085next\u0085", "next\u200bpage",
		long, "xnext " + long, "NEXT" + strings.Repeat(" ", 40) + "20", "next" + strings.Repeat("é", 20),
		"VİEW MORE", "SHOW MORE", "\u212anext", "Ｎext", "ΣHOW", "next →", "NEXT →", "&raquo;", "&rsaquo;", "&gt;&gt;",
		"next\xff", "\xffnext", "next \xff", "\xe2\x86", "next \xe2\x86", "\xc2", "more\xc2\xa0",
		"", " ", "nextpage", "next\tpage\t",
	}
	numbers := []string{
		"1", "2", "3", "+2", "007", "-1", "-0", "0", "2 3", "+", "++2", "+ 2", " 4 ", "\u00a05\u00a0", "\u30006",
		"999", "1000", "0999", "00000000000000000000000000000003", "99999999999999999999999", "4\xff", "\xff4",
		"1<b>2</b>", "<i>1</i>", "1\xc2", "\xc2\xa02", "٣", "1_0", "0x2",
	}
	var pages []string
	for _, a := range anchors {
		pages = append(pages, `<body><p><a href="/n">`+a+`</a></p></body>`)
	}
	for _, n := range numbers {
		pages = append(pages,
			`<body><div><a href="/1">`+n+`</a> <a href="/2">2</a> <a href="/3">3</a> <a href="/4">4</a></div></body>`,
			`<body><div>1 <a href="/a">`+n+`</a> <a href="/b">3</a></div></body>`,
			`<body><div><b>`+n+`</b> <a href="/x">2</a> <a href="/y">3</a> <a href="/z">4</a></div></body>`,
			`<body><div>`+n+` <a href="/x">2</a> <a href="/y">3</a></div></body>`,
		)
	}
	pages = append(pages,
		// Duplicate page numbers: the last href of a number wins.
		`<body><div><a href="/a1">1</a> <a href="/a2">2</a> <a href="/b2">2</a> <a href="/a3">3</a></div></body>`,
		`<body><div><b>1</b> <a href="/a2">2</a> <a href="/b2">2</a> <a href="/a3">3</a></div></body>`,
		`<body><div><a href="/a">5</a> <a href="/b">6</a> <a href="/c">7</a> <a href="">8</a> <a>9</a></div></body>`,
		// Two bars: the first with the most links wins.
		`<body><div><a href="/1">1</a><a href="/2">2</a><a href="/3">3</a></div>`+
			`<div><a href="/x1">1</a><a href="/x2">2</a><a href="/x3">3</a><a href="/x4">4</a></div></body>`,
		`<body><div><a href="/1">1</a><a href="/2">2</a><a href="/3">3</a></div>`+
			`<div><a href="/x1">1</a><a href="/x2">2</a><a href="/x3">3</a></div></body>`,
		// Current page known but its successor unlinked.
		`<body><div><a href="/1">1</a> <a href="/2">2</a> <b>3</b></div></body>`,
		`<body><div><a href="/997">997</a> <a href="/998">998</a> <b>999</b></div></body>`,
		// Next text after a bar, and rel=next after next text.
		`<body><div><a href="/1">1</a><a href="/2">2</a><a href="/3">3</a></div><a href="/t">Next</a></body>`,
		`<body><a href="/t">Next</a><a rel="NEXT" href="/r">go</a><a rel="next" href="/r2">go</a></body>`,
		`<body><a rel="nofollow next" href="/r">go</a></body>`,
		`<body><a rel="next" href="">go</a><a href="/t">more</a></body>`,
		`<body><a rel="nextpage" href="/r">go</a></body>`,
		`<body><a rel="next" href="/outer"><a rel="next" href="/inner">x</a></a></body>`,
	)
	for _, src := range pages {
		root, err := tagtree.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		checkAgainstOracle(t, fmt.Sprintf("%q", src), root)
	}

	// The parser may merge or normalize text, so runes split across
	// content nodes, and every edge string as raw text, are built by hand.
	split := [][]string{
		{"Ne", "xt"}, {"next", " ", "page"}, {"next", "\xc2", "\xa0page"}, {"\xc2", "\xbb"}, {"\xe2\x80", "\xba"},
		{"\xe2", "\x80", "\xba"}, {"\xe2", "", "\x80\xba"}, {"\xe2\x80", "x"}, {"\xe2\x80"}, {"next \xe2", "\x80"},
		{"1", "\xc2"}, {"\xc2", "\xa02"}, {"\xe3\x80", "\x80", "3"}, {"+", "2"}, {"\xf0\x9f", "\x98", "\x80"},
	}
	for _, s := range append(anchors, numbers...) {
		split = append(split, []string{s})
	}
	for _, pieces := range split {
		for _, tag := range []string{"a", "b"} {
			root := splitTextPage(tag, pieces)
			checkAgainstOracle(t, fmt.Sprintf("<%s> split %q", tag, pieces), root)
		}
	}
}

// splitTextPage builds body > div > [tag(pieces...), a 2, a 3] with the
// first child's text spread over one content node per piece, each piece
// under its own <i> after the first.
func splitTextPage(tag string, pieces []string) *tagtree.Node {
	div := &tagtree.Node{Tag: "div"}
	first := &tagtree.Node{Tag: tag, Parent: div, Attrs: []htmlparse.Attr{{Name: "href", Value: "/first"}}}
	for i, p := range pieces {
		text := &tagtree.Node{Text: p}
		if i == 0 {
			text.Parent = first
			first.Children = append(first.Children, text)
			continue
		}
		wrap := &tagtree.Node{Tag: "i", Parent: first, Children: []*tagtree.Node{text}}
		text.Parent = wrap
		first.Children = append(first.Children, wrap)
	}
	div.Children = append(div.Children, first)
	for _, n := range []string{"2", "3"} {
		a := &tagtree.Node{Tag: "a", Parent: div, Attrs: []htmlparse.Attr{{Name: "href", Value: "/" + n}}}
		a.Children = []*tagtree.Node{{Text: n, Parent: a}}
		div.Children = append(div.Children, a)
	}
	body := &tagtree.Node{Tag: "body", Children: []*tagtree.Node{div}}
	div.Parent = body
	return body
}

// FuzzFindNext parses arbitrary HTML and holds FindNext and
// FindPagination to the reference implementation.
func FuzzFindNext(f *testing.F) {
	for _, spec := range corpus.AllSpecs()[:2] {
		f.Add(spec.Page(0).HTML)
	}
	for _, s := range []string{
		`<a href="/p2">Next 20 records</a>`,
		`<a rel="nofollow next" href="/r">go</a><a href="/t">next</a>`,
		`<div><a href="/1">1</a> <b>2</b> <a href="/3">+3</a> <a href="/4">004</a></div>`,
		`<div>1 <a href="/2">2</a><a href="/2b">2</a><a href="/3"> 3 </a></div>`,
		"<a href=x>\xe2\x80<b>\xba</b></a>",
		"<a href=x>NEXT\u00a0\u00a0PAGE</a>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := tagtree.Parse(src)
		if err != nil {
			return
		}
		checkAgainstOracle(t, "fuzzed page", root)
	})
}
