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
		for _, sub := range randSubtrees(t, rng, 12) {
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
		for _, sub := range randSubtrees(t, rng, 8) {
			gotRP, wantRP := RPPairs(sub), slowRPPairs(sub)
			if fmt.Sprint(gotRP) != fmt.Sprint(wantRP) {
				t.Fatalf("trial %d: RPPairs diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotRP, wantRP)
			}
			gotSB, wantSB := SBPairs(sub), slowSBPairs(sub)
			if fmt.Sprint(gotSB) != fmt.Sprint(wantSB) {
				t.Fatalf("trial %d: SBPairs diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotSB, wantSB)
			}
			gotPP, wantPP := PPPaths(sub), slowPPPaths(sub)
			if fmt.Sprint(gotPP) != fmt.Sprint(wantPP) {
				t.Fatalf("trial %d: PPPaths diverged on %s:\n got: %v\nwant: %v",
					trial, tagtree.Path(sub), gotPP, wantPP)
			}
		}
	}
}
