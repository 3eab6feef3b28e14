package separator

// Differential tests: the optimized shared-index heuristics must produce
// rankings identical to the frozen slowXxx references (slow_test.go) on
// randomized trees and on the corpus replicas. Scores derive from integer
// arithmetic in both implementations, so exact equality is required.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"omini/internal/tagtree"
)

// randPageHTML emits a random, deliberately sloppy HTML page: nested tags
// from the separator-relevant vocabulary, text runs, void elements, and
// occasionally unclosed tags (tidy repairs them).
func randPageHTML(rng *rand.Rand) string {
	tags := []string{
		"div", "table", "tr", "td", "ul", "li", "p", "b", "a", "span",
		"dl", "dt", "dd", "font", "blockquote", "pre", "h3", "center",
	}
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "golf", "hotel"}
	var b strings.Builder
	b.WriteString("<html><body>")
	var emit func(depth int)
	emit = func(depth int) {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			switch {
			case depth > 4 || rng.Intn(3) == 0:
				for w := 0; w <= rng.Intn(3); w++ {
					b.WriteString(words[rng.Intn(len(words))])
					b.WriteByte(' ')
				}
			case rng.Intn(8) == 0:
				b.WriteString("<hr>")
			case rng.Intn(8) == 0:
				b.WriteString("<br>")
			default:
				tag := tags[rng.Intn(len(tags))]
				fmt.Fprintf(&b, "<%s>", tag)
				emit(depth + 1)
				if rng.Intn(10) != 0 { // sometimes leave unclosed
					fmt.Fprintf(&b, "</%s>", tag)
				}
			}
		}
	}
	emit(0)
	b.WriteString("</body></html>")
	return b.String()
}

// randSubtrees parses a random page and returns up to max multi-child tag
// nodes to use as chosen subtrees.
func randSubtrees(t *testing.T, rng *rand.Rand, max int) []*tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(randPageHTML(rng))
	if err != nil {
		t.Fatalf("parse random page: %v", err)
	}
	var subs []*tagtree.Node
	root.Walk(func(n *tagtree.Node) bool {
		if !n.IsContent() && n.Fanout() > 1 && len(subs) < max {
			subs = append(subs, n)
		}
		return true
	})
	return subs
}

// wideSubtrees returns subtrees that index more tags than a lookup
// scans, so the differential tests reach the index's map: one with 40
// distinct child tags, each repeated, where the map is built while the
// child tags are counted; and one with 20 distinct child tags, each
// opening a tag of its own, where it is built only once the opening
// tags are indexed. Children are childless, hold text or open a tag,
// some with text between them, so every heuristic has pairs to rank.
func wideSubtrees(t *testing.T) []*tagtree.Node {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	child := func(b *strings.Builder, tag, opens string) {
		switch {
		case rng.Intn(5) == 0:
			fmt.Fprintf(b, "<%s></%s>", tag, tag)
		case opens == "" || rng.Intn(4) == 0:
			fmt.Fprintf(b, "<%s>item %d</%s>", tag, rng.Intn(100), tag)
		default:
			fmt.Fprintf(b, "<%s><%s>item %d</%s></%s>", tag, opens, rng.Intn(1000), opens, tag)
		}
		if rng.Intn(6) == 0 {
			b.WriteString("between ")
		}
	}
	var pages [2]strings.Builder
	for rep := 0; rep < 3; rep++ {
		for _, i := range rng.Perm(40) {
			opens := fmt.Sprintf("tag-%d", (7*i+3)%40) // a child tag
			if i%2 == 0 {
				opens = fmt.Sprintf("in-%d", i%8)
			}
			child(&pages[0], fmt.Sprintf("tag-%d", i), opens)
		}
		for i := 0; i < 20; i++ {
			child(&pages[1], fmt.Sprintf("tag-%d", i), fmt.Sprintf("in-%d", i))
		}
	}
	var subs []*tagtree.Node
	for i := range pages {
		root, err := tagtree.Parse("<html><body>" + pages[i].String() + "</body></html>")
		if err != nil {
			t.Fatal(err)
		}
		body := root.FindAll("body")[0]
		st, err := NewStats(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.wide == nil || (i == 1) != (st.Len() <= scanLimit) {
			t.Fatalf("wide page %d: %d child tags of %d indexed, map built %v", i, st.Len(), len(st.tags), st.wide != nil)
		}
		subs = append(subs, body)
	}
	return subs
}

func sameRanking(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func TestDifferentialRankings(t *testing.T) {
	refs := []struct {
		h    Heuristic
		slow func(*tagtree.Node) []Ranked
	}{
		{SD(), slowSDRank},
		{RP(), slowRPRank},
		{IPS(), slowIPSRank},
		{PP(), slowPPRank},
		{SB(), slowSBRank},
		{HC(), slowHCRank},
		{IT(), slowITRank},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		subs := randSubtrees(t, rng, 12)
		if trial == 0 {
			subs = append(subs, wideSubtrees(t)...)
		}
		for _, sub := range subs {
			for _, ref := range refs {
				got := rank(t, ref.h, sub)
				want := ref.slow(sub)
				if !sameRanking(got, want) {
					t.Fatalf("trial %d: %s diverged on %s:\n got: %v\nwant: %v",
						trial, ref.h.Name(), tagtree.Path(sub), got, want)
				}
			}
		}
	}
}

// TestDifferentialPairListings pins the exported pair/path listings (Tables
// 3, 6, 7) to their references, since reports and tests consume them.
func TestDifferentialPairListings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		subs := randSubtrees(t, rng, 8)
		if trial == 0 {
			subs = append(subs, wideSubtrees(t)...)
		}
		for _, sub := range subs {
			gotRP, wantRP := rpPairs(t, sub), slowRPPairs(sub)
			if fmt.Sprint(gotRP) != fmt.Sprint(wantRP) {
				t.Fatalf("trial %d: RPPairs diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotRP, wantRP)
			}
			gotSB, wantSB := sbPairs(t, sub), slowSBPairs(sub)
			if fmt.Sprint(gotSB) != fmt.Sprint(wantSB) {
				t.Fatalf("trial %d: SBPairs diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotSB, wantSB)
			}
			gotPP, wantPP := ppPaths(t, sub), slowPPPaths(sub)
			if fmt.Sprint(gotPP) != fmt.Sprint(wantPP) {
				t.Fatalf("trial %d: PPPaths diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotPP, wantPP)
			}
		}
	}
}
