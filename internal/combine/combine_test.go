package combine

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"omini/internal/govern"
	"omini/internal/pathology"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

func chosenSubtree(t *testing.T, page sitegen.Page) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		t.Fatalf("truth path %q missing", page.Truth.SubtreePath)
	}
	return sub
}

// The paper's Section 6.2 example: compound probability of 78%, 63% and 85%
// is 89% by inclusion–exclusion.
// combine runs Combine with no guard, failing the test on an error a nil
// guard must never produce.
func combine(t *testing.T, sub *tagtree.Node, table ProbTable) ([]Candidate, []RankedList) {
	t.Helper()
	cands, lists, err := Combine(sub, separator.All(), table, nil)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	return cands, lists
}

func TestInclusionExclusionExample(t *testing.T) {
	miss := (1 - 0.78) * (1 - 0.63) * (1 - 0.85)
	got := 1 - miss
	if math.Abs(got-0.98779) > 1e-5 {
		t.Fatalf("sanity: %v", got)
	}
	// The paper rounds the printed intermediate differently (89% comes
	// from its worked arithmetic); what we verify here is the law itself:
	// P(A∪B) = P(A)+P(B)−P(A∩B) for two events.
	pa, pb := 0.78, 0.63
	union := pa + pb - pa*pb
	if math.Abs((1-(1-pa)*(1-pb))-union) > 1e-12 {
		t.Error("inclusion-exclusion identity violated")
	}
}

func TestProbTableLookup(t *testing.T) {
	table := PaperProbs()
	tests := []struct {
		heuristic string
		rank      int
		want      float64
	}{
		{"SD", 1, 0.78},
		{"PP", 1, 0.85},
		{"IPS", 2, 0.46},
		{"SB", 5, 0.03},
		{"SD", 6, 0},    // beyond table depth
		{"SD", 0, 0},    // invalid rank
		{"XX", 1, 0},    // unknown heuristic
		{"HC", 1, 0.79}, // BYU entries present
	}
	for _, tt := range tests {
		if got := table.Prob(tt.heuristic, tt.rank); got != tt.want {
			t.Errorf("Prob(%s,%d) = %v, want %v", tt.heuristic, tt.rank, got, tt.want)
		}
	}
}

func TestCombineOnReplicas(t *testing.T) {
	table := PaperProbs()
	for _, page := range []sitegen.Page{sitegen.LOC(), sitegen.Canoe()} {
		sub := chosenSubtree(t, page)
		cands, lists := combine(t, sub, table)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", page.Name)
		}
		if !page.Truth.CorrectSeparator(cands[0].Tag) {
			t.Errorf("%s: combined top = %q (p=%.3f), want one of %v",
				page.Name, cands[0].Tag, cands[0].Prob, page.Truth.Separators)
		}
		for i, h := range separator.All() {
			if lists[i].Name != h.Name() || len(lists[i].Ranked) == 0 {
				t.Errorf("%s: list %d = %s with %d tags, want %s's ranking",
					page.Name, i, lists[i].Name, len(lists[i].Ranked), h.Name())
			}
		}
		// Probabilities must be valid and sorted descending.
		for i, c := range cands {
			if c.Prob < 0 || c.Prob > 1 {
				t.Errorf("%s: P(%s) = %v out of range", page.Name, c.Tag, c.Prob)
			}
			if i > 0 && c.Prob > cands[i-1].Prob {
				t.Errorf("%s: ranking not sorted at %d", page.Name, i)
			}
		}
	}
}

// A tag ranked first by all five heuristics must collect a higher compound
// probability than any tag seen by fewer heuristics.
func TestCompoundEvidenceAccumulates(t *testing.T) {
	sub := chosenSubtree(t, sitegen.Canoe())
	cands, _ := combine(t, sub, PaperProbs())
	if cands[0].Tag != "table" {
		t.Fatalf("top = %q", cands[0].Tag)
	}
	if cands[0].Support != 5 {
		t.Errorf("table support = %d, want 5 (ranked by every heuristic)", cands[0].Support)
	}
	// The exact compound for five rank-1 probabilities:
	want := 1.0
	for _, p := range []float64{0.78, 0.73, 0.40, 0.85, 0.63} {
		want *= 1 - p
	}
	want = 1 - want
	if math.Abs(cands[0].Prob-want) > 1e-12 {
		t.Errorf("P(table) = %v, want %v", cands[0].Prob, want)
	}
}

func TestCombineEmptySubtree(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><p>just text</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	p := root.FindAll("p")[0]
	if cands, _ := combine(t, p, PaperProbs()); len(cands) != 0 {
		t.Errorf("candidates on leaf subtree: %v", cands)
	}
}

func TestNewCombinationCanonicalOrder(t *testing.T) {
	c := NewCombination([]separator.Heuristic{
		separator.SB(), separator.PP(), separator.SD(), separator.RP(), separator.IPS(),
	})
	if c.Name != "RSIPB" {
		t.Errorf("name = %q, want RSIPB", c.Name)
	}
	if got := RSIPB().Name; got != "RSIPB" {
		t.Errorf("RSIPB() name = %q", got)
	}
	if got := HTRS().Name; got != "HTRS" {
		t.Errorf("HTRS() name = %q", got)
	}
}

func TestCombinationsCount(t *testing.T) {
	// The paper: 26 combinations of the five heuristics beyond singles.
	combos := Combinations(separator.All(), 2)
	if len(combos) != 26 {
		t.Fatalf("got %d combinations, want 26", len(combos))
	}
	names := make(map[string]bool, len(combos))
	for _, c := range combos {
		if names[c.Name] {
			t.Errorf("duplicate combination %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"RS", "SI", "SB", "RIB", "RSB", "SIB", "RP",
		"SP", "IP", "PB", "RSI", "RIP", "RSP", "SIP", "SPB", "RSIP", "RSIB",
		"RSPB", "SIPB", "RIPB", "RPB", "IPB", "IB", "RB", "RI", "RSIPB"} {
		if !names[want] {
			t.Errorf("missing combination %q (paper Table 11)", want)
		}
	}
	// BYU: four heuristics yield 11 combinations of size >= 2.
	byu := Combinations(HTRS().Heuristics, 2)
	if len(byu) != 11 {
		t.Errorf("BYU combinations = %d, want 11 (Table 20)", len(byu))
	}
}

func TestCombinationsIncludeSingles(t *testing.T) {
	combos := Combinations(separator.All(), 1)
	if len(combos) != 31 {
		t.Fatalf("got %d, want 31 (26 + 5 singles)", len(combos))
	}
	var singles []string
	for _, c := range combos {
		if len(c.Heuristics) == 1 {
			singles = append(singles, c.Name)
		}
	}
	sort.Strings(singles)
	if want := []string{"B", "I", "P", "R", "S"}; !reflect.DeepEqual(singles, want) {
		t.Errorf("singles = %v, want %v", singles, want)
	}
}

// Property: compound probability never decreases when another heuristic's
// evidence is added.
func TestCompoundMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		miss := 1.0
		prev := 0.0
		for _, p := range raw {
			p = math.Abs(p)
			p -= math.Floor(p) // clamp into [0,1)
			miss *= 1 - p
			cur := 1 - miss
			if cur+1e-12 < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// pollCounter is a context whose Err counts its calls. A guard calls
// it once every 1024 operations charged to it, so the count measures
// the work a phase charged.
type pollCounter struct {
	context.Context
	polls int
}

func (c *pollCounter) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestDistinctTagsStaysLinear: on a body of n children that are n
// distinct tags, Combine finishes inside a default guard, and both the
// work it charges the guard and the bytes it allocates grow with n, not
// with the n² pairs of tags: quadrupling n may grow them at most
// eightfold, where a table of every pair, or a tag lookup scanning
// every tag, would grow them sixteenfold.
func TestDistinctTagsStaysLinear(t *testing.T) {
	measure := func(n int) (bytes uint64, polls int) {
		root, err := tagtree.Parse(pathology.DistinctTags(n))
		if err != nil {
			t.Fatal(err)
		}
		body := root.FindAll("body")[0]
		if body.Fanout() != n {
			t.Fatalf("body has %d children, want %d", body.Fanout(), n)
		}
		ctx := &pollCounter{Context: context.Background()}
		g := govern.NewGuard(ctx, govern.Default())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cands, _, err := Combine(body, separator.All(), PaperProbs(), g)
		runtime.ReadMemStats(&after)
		if err != nil || len(cands) == 0 {
			t.Fatalf("n=%d: %d candidates, err %v", n, len(cands), err)
		}
		return after.TotalAlloc - before.TotalAlloc, ctx.polls
	}
	smallBytes, smallPolls := measure(1024)
	largeBytes, largePolls := measure(4096)
	if largeBytes > 8*smallBytes {
		t.Errorf("Combine allocates %d B at 1024 distinct tags and %d B at 4096: more than linear", smallBytes, largeBytes)
	}
	if smallPolls == 0 || largePolls > 8*smallPolls {
		t.Errorf("Combine charges its guard %d polls' work at 1024 distinct tags and %d at 4096: more than linear", smallPolls, largePolls)
	}
}
