package subtree

// Differential tests: the optimized subtree heuristics must produce
// rankings identical (same nodes, same order, same scores) to the frozen
// slowXxx references in slow_test.go on randomized trees.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"omini/internal/tagtree"
)

// randPageHTML mirrors the separator package's randomized page generator:
// sloppy nested HTML over a list-heavy vocabulary.
func randPageHTML(rng *rand.Rand) string {
	tags := []string{
		"div", "table", "tr", "td", "ul", "li", "p", "b", "a", "span",
		"dl", "dt", "dd", "font", "blockquote", "form", "center",
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
			default:
				tag := tags[rng.Intn(len(tags))]
				fmt.Fprintf(&b, "<%s>", tag)
				emit(depth + 1)
				if rng.Intn(10) != 0 {
					fmt.Fprintf(&b, "</%s>", tag)
				}
			}
		}
	}
	emit(0)
	b.WriteString("</body></html>")
	return b.String()
}

func sameRanking(a, b []Ranked) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
			return i, false
		}
	}
	return 0, true
}

func TestDifferentialSubtreeRankings(t *testing.T) {
	refs := []struct {
		h    Heuristic
		slow func(*tagtree.Node) []Ranked
	}{
		{HF(), slowHFRank},
		{GSI(), slowGSIRank},
		{LTC(), slowLTCRank},
		{Compound(), slowCompoundRank},
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		root, err := tagtree.Parse(randPageHTML(rng))
		if err != nil {
			t.Fatalf("trial %d: parse: %v", trial, err)
		}
		for _, ref := range refs {
			got := rank(t, ref.h, root)
			want := ref.slow(root)
			if at, ok := sameRanking(got, want); !ok {
				t.Fatalf("trial %d: %s diverged at entry %d (of %d vs %d)",
					trial, ref.h.Name(), at, len(got), len(want))
			}
		}
	}
}
