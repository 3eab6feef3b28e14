package nav

import (
	"testing"

	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

func parse(t *testing.T, src string) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestFindNextByText(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string
	}{
		{"plain next", `<body><a href="/p2">Next</a></body>`, "/p2"},
		{"next page", `<body><a href="/p2">Next page</a></body>`, "/p2"},
		{"next n records", `<body><a href="/p2">Next 20 records</a></body>`, "/p2"},
		{"more results", `<body><a href="/p2">More results</a></body>`, "/p2"},
		{"angle quote", `<body><a href="/p2">&raquo;</a></body>`, "/p2"},
		{"case insensitive", `<body><a href="/p2">NEXT</a></body>`, "/p2"},
		{"nested markup", `<body><a href="/p2"><b>Next</b></a></body>`, "/p2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := FindNext(parse(t, tt.give))
			if !ok || got != tt.want {
				t.Errorf("FindNext = %q, %v; want %q", got, ok, tt.want)
			}
		})
	}
}

func TestFindNextPrefersRelNext(t *testing.T) {
	root := parse(t, `<body>
		<a href="/wrong">Next</a>
		<a href="/right" rel="next">continue</a>
	</body>`)
	got, ok := FindNext(root)
	if !ok || got != "/right" {
		t.Errorf("FindNext = %q, %v; want /right", got, ok)
	}
}

// rel is a space-separated token list: "next" among other keywords still
// names the next page, in any case, and outranks next-flavored text.
func TestFindNextRelTokenList(t *testing.T) {
	for _, rel := range []string{"nofollow next", "next nofollow", "NoFollow\tNext", " next "} {
		root := parse(t, `<body>
			<a href="/wrong">Next</a>
			<a href="/right" rel="`+rel+`">continue</a>
		</body>`)
		if got, ok := FindNext(root); !ok || got != "/right" {
			t.Errorf("rel=%q: FindNext = %q, %v; want /right", rel, got, ok)
		}
	}
	// A token that merely contains "next" is not the keyword.
	root := parse(t, `<body><a href="/r" rel="nextpage">go</a></body>`)
	if got, ok := FindNext(root); ok {
		t.Errorf("rel=nextpage: FindNext = %q, want none", got)
	}
}

func TestFindNextAbsent(t *testing.T) {
	for _, src := range []string{
		`<body><a href="/home">Home</a><a href="/about">About</a></body>`,
		`<body><p>no links at all</p></body>`,
		`<body><a>Next</a></body>`, // next text but no href
	} {
		if got, ok := FindNext(parse(t, src)); ok {
			t.Errorf("FindNext(%q) = %q, want none", src, got)
		}
	}
}

func TestPaginationBar(t *testing.T) {
	root := parse(t, `<body><p>Results</p><div>
		<a href="/q?p=1">1</a> <b>2</b> <a href="/q?p=3">3</a>
		<a href="/q?p=4">4</a> <a href="/q?p=5">5</a>
	</div></body>`)
	bar := FindPagination(root)
	if bar == nil {
		t.Fatal("no pagination found")
	}
	if bar.Current != 2 {
		t.Errorf("current = %d, want 2", bar.Current)
	}
	if got := bar.Next(); got != "/q?p=3" {
		t.Errorf("Next = %q, want /q?p=3", got)
	}
	// FindNext falls through to the bar when no next-text link exists.
	href, ok := FindNext(root)
	if !ok || href != "/q?p=3" {
		t.Errorf("FindNext = %q, %v", href, ok)
	}
}

func TestPaginationCurrentAsBareText(t *testing.T) {
	root := parse(t, `<body><div>
		1 <a href="/p2">2</a> <a href="/p3">3</a> <a href="/p4">4</a>
	</div></body>`)
	bar := FindPagination(root)
	if bar == nil {
		t.Fatal("no pagination found")
	}
	if bar.Current != 1 || bar.Next() != "/p2" {
		t.Errorf("current=%d next=%q", bar.Current, bar.Next())
	}
}

func TestPaginationRejectsSparseNumbers(t *testing.T) {
	// Two numbered links do not make a bar; neither do non-consecutive
	// numbers (years, SKUs).
	for _, src := range []string{
		`<body><div><a href="/a">1</a> <a href="/b">2</a></div></body>`,
		`<body><div><a href="/a">3</a> <a href="/b">17</a> <a href="/c">99</a></div></body>`,
		`<body><div><a href="/a">1998</a> <a href="/b">1999</a> <a href="/c">2000</a></div></body>`,
	} {
		if bar := FindPagination(parse(t, src)); bar != nil {
			t.Errorf("FindPagination(%q) = %+v, want nil", src, bar)
		}
	}
}

func TestPaginationYearsOutOfRange(t *testing.T) {
	// Consecutive years are in range only if <= 999; 1998-2000 must not
	// count (covered above); 7 8 9 must.
	root := parse(t, `<body><div>
		<a href="/p7">7</a> <a href="/p8">8</a> <a href="/p9">9</a>
	</div></body>`)
	if FindPagination(root) == nil {
		t.Error("consecutive small numbers rejected")
	}
}

// The generated corpus's inline footers carry "Next page" links; FindNext
// must locate them on real pages.
func TestFindNextOnCorpusPages(t *testing.T) {
	spec := sitegen.SiteSpec{
		Name: "nav.example", Domain: sitegen.DomainSearch,
		LayoutName: "para-div",
		Noise:      sitegen.NoiseSpec{InlineHeader: true, InlineFooter: true},
		MinItems:   6, MaxItems: 10,
	}
	page := spec.Page(0)
	root := parse(t, page.HTML)
	href, ok := FindNext(root)
	if !ok || href != "/next" {
		t.Errorf("FindNext on corpus page = %q, %v", href, ok)
	}
}

func TestNextOnEmptyPagination(t *testing.T) {
	p := &Pagination{Links: map[int]string{}}
	if got := p.Next(); got != "" {
		t.Errorf("Next on empty bar = %q", got)
	}
}

// FindNext runs on every served page; on a page without a pagination bar
// it must not allocate.
func TestFindNextAllocatesNothing(t *testing.T) {
	for i, root := range corpusTrees(t) {
		if FindPagination(root) != nil {
			continue
		}
		if n := testing.AllocsPerRun(5, func() { FindNext(root) }); n != 0 {
			t.Fatalf("corpus page %d: FindNext made %v allocations, want 0", i, n)
		}
	}
}

// benchNext keeps BenchmarkFindNext's result live.
var benchNext string

func BenchmarkFindNext(b *testing.B) {
	roots := corpusTrees(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchNext, _ = FindNext(roots[i%len(roots)])
	}
}
