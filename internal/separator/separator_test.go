package separator

import (
	"reflect"
	"testing"

	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// chosenSubtree parses a replica page and resolves its ground-truth minimal
// subtree, which is the input every separator heuristic receives.
func chosenSubtree(t *testing.T, page sitegen.Page) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		t.Fatalf("parse %s: %v", page.Name, err)
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		t.Fatalf("truth path %q does not resolve; tree:\n%s",
			page.Truth.SubtreePath, tagtree.Render(root, tagtree.RenderOptions{MaxDepth: 3}))
	}
	return sub
}

// rank indexes sub and ranks it with h, with no guard, failing the test
// on an error a nil guard must never produce.
func rank(t testing.TB, h Heuristic, sub *tagtree.Node) []Ranked {
	t.Helper()
	st, err := NewStats(sub, nil)
	if err != nil {
		t.Fatalf("NewStats: %v", err)
	}
	ranked, err := h.Rank(st)
	if err != nil {
		t.Fatalf("%s.Rank: %v", h.Name(), err)
	}
	return ranked
}

// rpPairs, sbPairs and ppPaths list a subtree's pairs and paths with no
// guard, failing the test on an error a nil guard must never produce.
func rpPairs(t testing.TB, sub *tagtree.Node) []RPPair {
	t.Helper()
	pairs, err := RPPairs(sub, nil)
	if err != nil {
		t.Fatalf("RPPairs: %v", err)
	}
	return pairs
}

func sbPairs(t testing.TB, sub *tagtree.Node) []SBPair {
	t.Helper()
	pairs, err := SBPairs(sub, nil)
	if err != nil {
		t.Fatalf("SBPairs: %v", err)
	}
	return pairs
}

func ppPaths(t testing.TB, sub *tagtree.Node) []PathCount {
	t.Helper()
	paths, err := PPPaths(sub, nil)
	if err != nil {
		t.Fatalf("PPPaths: %v", err)
	}
	return paths
}

// subtreeRank runs a subtree heuristic with no guard.
func subtreeRank(t testing.TB, h subtree.Heuristic, root *tagtree.Node) []subtree.Ranked {
	t.Helper()
	ranked, err := h.Rank(root, nil)
	if err != nil {
		t.Fatalf("%s.Rank: %v", h.Name(), err)
	}
	return ranked
}

func TestLOCReplicaShape(t *testing.T) {
	body := chosenSubtree(t, sitegen.LOC())
	counts := body.ChildTagCounts()
	// The paper's Figure 2 counts: hr x21, a x21, pre x20.
	if counts["hr"] != 21 || counts["a"] != 21 || counts["pre"] != 20 {
		t.Errorf("LOC child counts = hr:%d a:%d pre:%d, want 21/21/20",
			counts["hr"], counts["a"], counts["pre"])
	}
}

func TestCanoeReplicaShape(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	if form.Tag != "form" {
		t.Fatalf("subtree tag = %q, want form", form.Tag)
	}
	if got := form.Fanout(); got != 19 {
		t.Errorf("form fanout = %d, want 19 (Figure 5)", got)
	}
	counts := form.ChildTagCounts()
	want := map[string]int{"img": 2, "br": 2, "table": 13, "map": 1, "form": 1}
	for tag, n := range want {
		if counts[tag] != n {
			t.Errorf("form child %s count = %d, want %d", tag, counts[tag], n)
		}
	}
}

// Table 1 behaviour: on the canoe tree HF's top subtree is the navigation
// font, while GSI, LTC and the compound algorithm rank form[4] first.
func TestCanoeSubtreeHeuristicsMatchTable1(t *testing.T) {
	page := sitegen.Canoe()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	hfTop := subtreeRank(t, subtree.HF(), root)[0].Node
	if hfTop.Tag != "font" {
		t.Errorf("HF top = %s, want the nav font (Table 1 rank 1)", tagtree.Path(hfTop))
	}
	for _, h := range []subtree.Heuristic{subtree.GSI(), subtree.LTC(), subtree.Compound()} {
		top := subtreeRank(t, h, root)[0].Node
		if got := tagtree.Path(top); got != page.Truth.SubtreePath {
			t.Errorf("%s top = %s, want %s", h.Name(), got, page.Truth.SubtreePath)
		}
	}
	// Table 1 ranks 2 and 3 for HF: form[4] then body.
	hfRanked := subtreeRank(t, subtree.HF(), root)
	if got := tagtree.Path(hfRanked[1].Node); got != "html[1].body[2].form[4]" {
		t.Errorf("HF rank 2 = %s, want form[4]", got)
	}
	if got := tagtree.Path(hfRanked[2].Node); got != "html[1].body[2]" {
		t.Errorf("HF rank 3 = %s, want body", got)
	}
}

// Table 2 behaviour: SD on the LOC body ranks hr, pre, a — ascending σ with
// the separator first.
func TestSDOnLOCMatchesTable2(t *testing.T) {
	body := chosenSubtree(t, sitegen.LOC())
	ranked := rank(t, SD(), body)
	if len(ranked) != 3 {
		t.Fatalf("SD returned %d candidates, want 3 (hr, pre, a): %v", len(ranked), ranked)
	}
	if ranked[0].Tag != "hr" {
		t.Errorf("SD rank 1 = %q, want hr", ranked[0].Tag)
	}
	got := map[string]bool{}
	for _, r := range ranked {
		got[r.Tag] = true
	}
	for _, tag := range []string{"hr", "pre", "a"} {
		if !got[tag] {
			t.Errorf("SD ranking missing %q: %v", tag, ranked)
		}
	}
	// σ ascends except within the documented 5% near-tie window, where the
	// more frequent tag ranks first.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score < ranked[i-1].Score*0.95 {
			t.Errorf("SD scores not ascending beyond near-tie tolerance: %v", ranked)
		}
	}
}

// Table 3 behaviour: RP on the canoe form ranks (table,tr) first with a
// difference of zero, and the chosen separator tag is table.
func TestRPOnCanoeMatchesTable3(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	pairs := rpPairs(t, form)
	if len(pairs) == 0 {
		t.Fatal("no RP pairs")
	}
	top := pairs[0]
	if top.Pair.First != "table" || top.Pair.Second != "tr" {
		t.Errorf("top pair = %v, want (table,tr)", top.Pair)
	}
	if top.Diff != 0 {
		t.Errorf("top pair diff = %d, want 0", top.Diff)
	}
	// The (img,br) pair of Table 3 with count 2 and diff 0.
	found := false
	for _, p := range pairs {
		if p.Pair == (TagPair{First: "img", Second: "br"}) {
			found = true
			if p.Count != 2 || p.Diff != 0 {
				t.Errorf("(img,br) = count %d diff %d, want 2/0", p.Count, p.Diff)
			}
		}
	}
	if !found {
		t.Error("(img,br) pair missing")
	}
	ranked := rank(t, RP(), form)
	if len(ranked) == 0 || ranked[0].Tag != "table" {
		t.Errorf("RP rank 1 = %v, want table", ranked)
	}
}

func TestRPEmptyWhenNoRepeatingPairs(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><p>a</p>text<b>c</b>text<i>d</i></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	body := root.FindAll("body")[0]
	if got := rank(t, RP(), body); len(got) != 0 {
		t.Errorf("RP = %v, want empty (no answer)", got)
	}
}

// Table 6 behaviour: SB sibling pair counts on both replicas.
func TestSBPairsMatchTable6(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	pairs := sbPairs(t, form)
	wantCanoe := map[TagPair]int{
		{First: "table", Second: "table"}: 11,
		{First: "img", Second: "br"}:      2,
		{First: "br", Second: "img"}:      1,
		{First: "br", Second: "table"}:    1,
		{First: "table", Second: "map"}:   1,
		{First: "map", Second: "table"}:   1,
		{First: "table", Second: "form"}:  1,
	}
	got := make(map[TagPair]int, len(pairs))
	for _, p := range pairs {
		got[p.Pair] = p.Count
	}
	for pair, want := range wantCanoe {
		if got[pair] != want {
			t.Errorf("canoe SB pair %v = %d, want %d", pair, got[pair], want)
		}
	}
	if pairs[0].Pair != (TagPair{First: "table", Second: "table"}) {
		t.Errorf("canoe SB top pair = %v, want (table,table)", pairs[0].Pair)
	}

	body := chosenSubtree(t, sitegen.LOC())
	locPairs := sbPairs(t, body)
	locGot := make(map[TagPair]int, len(locPairs))
	for _, p := range locPairs {
		locGot[p.Pair] = p.Count
	}
	wantLOC := map[TagPair]int{
		{First: "hr", Second: "pre"}:  20,
		{First: "pre", Second: "a"}:   20,
		{First: "a", Second: "hr"}:    20,
		{First: "h1", Second: "i"}:    1,
		{First: "i", Second: "hr"}:    1,
		{First: "hr", Second: "a"}:    1,
		{First: "a", Second: "br"}:    1,
		{First: "br", Second: "form"}: 1,
		{First: "form", Second: "p"}:  1,
	}
	for pair, want := range wantLOC {
		if locGot[pair] != want {
			t.Errorf("LOC SB pair %v = %d, want %d", pair, locGot[pair], want)
		}
	}
	// (hr,pre) appears before (pre,a) in the document, so it ranks first.
	if locPairs[0].Pair != (TagPair{First: "hr", Second: "pre"}) {
		t.Errorf("LOC SB top pair = %v, want (hr,pre)", locPairs[0].Pair)
	}
	if got := rank(t, SB(), body); len(got) == 0 || got[0].Tag != "hr" {
		t.Errorf("LOC SB separator = %v, want hr", got)
	}
	if got := rank(t, SB(), form); len(got) == 0 || got[0].Tag != "table" {
		t.Errorf("canoe SB separator = %v, want table", got)
	}
}

// Tables 7/8 behaviour: PP path counts and tag rankings on both replicas.
func TestPPMatchesTables7And8(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	paths := ppPaths(t, form)
	counts := make(map[string]int, len(paths))
	for _, pc := range paths {
		counts[pc.Path] = pc.Count
	}
	wantPaths := map[string]int{
		"table.tr.td":             26,
		"table.tr":                13,
		"table":                   13,
		"table.tr.td.img":         12,
		"table.tr.td.table":       12,
		"table.tr.td.table.tr":    12,
		"form.table.tr.td.input":  2,
		"form.table.tr.td":        2,
		"img":                     2,
		"br":                      2,
		"table.tr.td.table.tr.td": 24,
	}
	for p, want := range wantPaths {
		if counts[p] != want {
			t.Errorf("path %q count = %d, want %d", p, counts[p], want)
		}
	}

	ranked := rank(t, PP(), form)
	wantOrder := []string{"table", "form", "img", "br"} // map occurs once: below threshold
	if got := Tags(ranked); !reflect.DeepEqual(got, wantOrder) {
		t.Errorf("canoe PP ranking = %v, want %v (Table 8)", got, wantOrder)
	}
	if ranked[0].Score != 26 {
		t.Errorf("canoe PP top score = %v, want 26", ranked[0].Score)
	}

	body := chosenSubtree(t, sitegen.LOC())
	locRanked := rank(t, PP(), body)
	if len(locRanked) < 4 {
		t.Fatalf("LOC PP ranking too short: %v", locRanked)
	}
	wantLOC := []Ranked{
		{Tag: "hr", Score: 21},
		{Tag: "a", Score: 21},
		{Tag: "pre", Score: 20},
		{Tag: "form", Score: 8},
	}
	for i, want := range wantLOC {
		if locRanked[i].Tag != want.Tag || locRanked[i].Score != want.Score {
			t.Errorf("LOC PP rank %d = %s/%v, want %s/%v (Table 8)",
				i+1, locRanked[i].Tag, locRanked[i].Score, want.Tag, want.Score)
		}
	}
}

// IPS uses the per-subtree-type lists of Table 4: table first for form
// subtrees, tr first for table subtrees, li for lists.
func TestIPSUsesSubtreeTypeLists(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	ranked := rank(t, IPS(), form)
	if len(ranked) == 0 || ranked[0].Tag != "table" {
		t.Errorf("IPS on form subtree = %v, want table first", Tags(ranked))
	}

	root, err := tagtree.Parse(`<html><body><ul>` +
		`<li>one item</li><li>two item</li><li>three item</li>` +
		`</ul></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	ul := root.FindAll("ul")[0]
	ranked = rank(t, IPS(), ul)
	if len(ranked) == 0 || ranked[0].Tag != "li" {
		t.Errorf("IPS on ul subtree = %v, want li first", Tags(ranked))
	}

	tbl, err := tagtree.Parse(`<html><body><table>` +
		`<tr><td>a</td></tr><tr><td>b</td></tr><tr><td>c</td></tr>` +
		`</table></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	ranked = rank(t, IPS(), tbl.FindAll("table")[0])
	if len(ranked) == 0 || ranked[0].Tag != "tr" {
		t.Errorf("IPS on table subtree = %v, want tr first", Tags(ranked))
	}
}

func TestIPSThreshold(t *testing.T) {
	// A single table child is below the occurrence threshold: no answer.
	root, err := tagtree.Parse(`<html><body><form><table><tr><td>x</td></tr></table></form></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	form := root.FindAll("form")[0]
	if got := rank(t, IPS(), form); len(got) != 0 {
		t.Errorf("IPS = %v, want empty below threshold", Tags(got))
	}
}

func TestIPSFallsBackToGlobalList(t *testing.T) {
	// A div subtree has no Table 4 entry; the global IPSList applies.
	root, err := tagtree.Parse(`<html><body><div>` +
		`<p>a</p><p>b</p><p>c</p><span>x</span><span>y</span><span>z</span>` +
		`</div></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	div := root.FindAll("div")[0]
	ranked := rank(t, IPS(), div)
	if len(ranked) != 2 || ranked[0].Tag != "p" || ranked[1].Tag != "span" {
		t.Errorf("IPS on div = %v, want [p span]", Tags(ranked))
	}
}

// HC ranks by raw child appearance count.
func TestHCRanking(t *testing.T) {
	body := chosenSubtree(t, sitegen.LOC())
	ranked := rank(t, HC(), body)
	if len(ranked) == 0 {
		t.Fatal("HC empty")
	}
	if ranked[0].Tag != "hr" || ranked[0].Score != 21 {
		t.Errorf("HC rank 1 = %s/%v, want hr/21", ranked[0].Tag, ranked[0].Score)
	}
	// a also has 21; hr appears first in the document.
	if ranked[1].Tag != "a" {
		t.Errorf("HC rank 2 = %s, want a", ranked[1].Tag)
	}
}

// IT uses one fixed list for every subtree type — on a form subtree it
// ranks hr/p/table by list position, ignoring the subtree type.
func TestITFixedList(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	ranked := rank(t, IT(), form)
	if len(ranked) == 0 || ranked[0].Tag != "table" {
		t.Errorf("IT on canoe form = %v, want table first (only listed tag above threshold)", Tags(ranked))
	}
	body := chosenSubtree(t, sitegen.LOC())
	ranked = rank(t, IT(), body)
	if len(ranked) == 0 || ranked[0].Tag != "hr" {
		t.Errorf("IT on LOC body = %v, want hr first", Tags(ranked))
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d heuristics", len(all))
	}
	wantLetters := map[string]byte{
		"SD": 'S', "RP": 'R', "IPS": 'I', "PP": 'P', "SB": 'B', "HC": 'H', "IT": 'T',
	}
	for name, letter := range wantLetters {
		h := ByName(name)
		if h == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if h.Name() != name || h.Letter() != letter {
			t.Errorf("ByName(%q) = %s/%c", name, h.Name(), h.Letter())
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

func TestRankOfAndTags(t *testing.T) {
	ranked := []Ranked{{Tag: "tr"}, {Tag: "table"}, {Tag: "p"}}
	if got := RankOf(ranked, "table"); got != 2 {
		t.Errorf("RankOf = %d, want 2", got)
	}
	if got := RankOf(ranked, "li"); got != 0 {
		t.Errorf("RankOf(absent) = %d, want 0", got)
	}
	if got := Tags(ranked); !reflect.DeepEqual(got, []string{"tr", "table", "p"}) {
		t.Errorf("Tags = %v", got)
	}
}

// Every heuristic must answer correctly on both replicas: rank 1 is a
// ground-truth separator (this is the success-rate-1.0 scenario).
func TestAllHeuristicsCorrectOnReplicas(t *testing.T) {
	pages := []sitegen.Page{sitegen.LOC(), sitegen.Canoe()}
	for _, page := range pages {
		sub := chosenSubtree(t, page)
		for _, h := range All() {
			ranked := rank(t, h, sub)
			if len(ranked) == 0 {
				t.Errorf("%s on %s: no answer", h.Name(), page.Name)
				continue
			}
			if !page.Truth.CorrectSeparator(ranked[0].Tag) {
				t.Errorf("%s on %s: top = %q, want one of %v (full: %v)",
					h.Name(), page.Name, ranked[0].Tag, page.Truth.Separators, Tags(ranked))
			}
		}
	}
}

// Heuristics must be pure functions of the subtree: same input, same output.
func TestHeuristicsDeterministic(t *testing.T) {
	form := chosenSubtree(t, sitegen.Canoe())
	heuristics := append(All(), HC(), IT())
	for _, h := range heuristics {
		first := Tags(rank(t, h, form))
		for i := 0; i < 3; i++ {
			if again := Tags(rank(t, h, form)); !reflect.DeepEqual(first, again) {
				t.Errorf("%s not deterministic: %v vs %v", h.Name(), first, again)
			}
		}
	}
}

// Empty or leaf-only subtrees must not panic and should yield no answer.
func TestHeuristicsOnDegenerateSubtrees(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><p>only text here</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	p := root.FindAll("p")[0]
	heuristics := append(All(), HC(), IT())
	for _, h := range heuristics {
		ranked := rank(t, h, p) // p's only child is a content node
		if len(ranked) != 0 {
			t.Errorf("%s on leaf-only subtree = %v, want empty", h.Name(), Tags(ranked))
		}
	}
}
