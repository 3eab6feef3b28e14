// Package combine implements the probabilistic combination of object
// separator heuristics from the paper's Section 6: each heuristic carries an
// empirical probability that its rank-r candidate is the correct separator
// (Table 10); the evidence of several independent heuristics for one tag is
// merged with the inclusion–exclusion law P(A∪B) = P(A)+P(B)−P(A∩B); and
// the tag with the highest compound probability wins. The package also
// enumerates all 26 heuristic combinations so the Table 11 sweep can be
// reproduced, and implements the BYU HTRS combination for Section 6.7.
package combine

import (
	"cmp"
	"slices"

	"omini/internal/govern"
	"omini/internal/separator"
	"omini/internal/tagtree"
)

// maxRank is the deepest rank carrying probability mass in the paper's
// tables; candidates ranked deeper contribute no evidence.
const maxRank = 5

// ProbTable maps a heuristic name to the empirical probability that its
// candidate at rank r (1-based, index r-1) is the correct separator.
type ProbTable map[string][]float64

// PaperProbs returns the rank-probability distribution the paper reports
// for its test data (Table 10 for the Omini heuristics, Table 20 for BYU's
// HC and IT). It is the default evidence table for the combined algorithm;
// the evaluation harness can substitute a table measured on this
// repository's own corpus.
func PaperProbs() ProbTable {
	return ProbTable{
		"SD":  {0.78, 0.18, 0.10, 0.00, 0.00},
		"RP":  {0.73, 0.13, 0.00, 0.00, 0.00},
		"IPS": {0.40, 0.46, 0.13, 0.07, 0.00},
		"PP":  {0.85, 0.06, 0.02, 0.00, 0.00},
		"SB":  {0.63, 0.17, 0.12, 0.06, 0.03},
		"HC":  {0.79, 0.13, 0.14, 0.00, 0.00},
		"IT":  {0.46, 0.33, 0.20, 0.06, 0.00},
	}
}

// Prob returns the probability the table assigns to rank (1-based) of the
// named heuristic; 0 when the heuristic or rank is unknown.
func (t ProbTable) Prob(heuristic string, rank int) float64 {
	probs, ok := t[heuristic]
	if !ok || rank < 1 || rank > len(probs) || rank > maxRank {
		return 0
	}
	return probs[rank-1]
}

// Candidate is one entry of the combined ranking.
type Candidate struct {
	// Tag is the candidate separator tag.
	Tag string
	// Prob is the compound probability that Tag is the correct separator.
	Prob float64
	// Support counts how many heuristics ranked the tag at all.
	Support int
}

// RankedList is one heuristic's candidate ranking, named so the probability
// table can be consulted.
type RankedList struct {
	// Name is the heuristic's short name ("SD", "RP", ...).
	Name string
	// Ranked is the heuristic's candidate list, best first.
	Ranked []separator.Ranked
}

// Combine runs every heuristic on the subtree, converts ranks to
// probabilities via the table, and merges per-tag evidence with
// inclusion–exclusion: P(t) = 1 − Π_h (1 − p_h(t)). The result is sorted by
// descending compound probability; ties prefer broader support, then the
// tag's first appearance among the subtree's children. One Stats index over
// the subtree serves every heuristic and the combination. Each
// heuristic's own ranking is returned too (the combination's input, for
// the decision trace).
//
// The index scan and every heuristic poll the guard's page context, and
// the guard is re-checked between heuristics, so a cancelled or
// out-of-time page stops inside the heuristic it is ranking. A nil guard
// means unlimited.
func Combine(sub *tagtree.Node, heuristics []separator.Heuristic, table ProbTable, g *govern.Guard) ([]Candidate, []RankedList, error) {
	st, err := separator.NewStats(sub, g)
	if err != nil {
		return nil, nil, err
	}
	lists := make([]RankedList, len(heuristics))
	for i, h := range heuristics {
		if err := g.Check(); err != nil {
			return nil, nil, err
		}
		ranked, err := h.Rank(st)
		if err != nil {
			return nil, nil, err
		}
		lists[i] = RankedList{Name: h.Name(), Ranked: ranked}
	}
	if err := g.Check(); err != nil {
		return nil, nil, err
	}
	return CombineLists(lists, table, st), lists, nil
}

// CombineLists merges pre-computed heuristic rankings of the subtree st
// indexes, as Combine does. Evidence accumulates by tag index, one slot
// per child tag; a tag that is not a child tag of the subtree (no
// heuristic ranks one) carries none. Equal-probability candidates are
// ordered by broader support, then by first appearance among the
// children, which is the order of their indices.
func CombineLists(lists []RankedList, table ProbTable, st *separator.Stats) []Candidate {
	// Until the compaction below, a slot's Prob holds Π (1 − p_h).
	out := make([]Candidate, st.Len())
	for _, list := range lists {
		for i, r := range list.Ranked {
			id, ok := st.Index(r.Tag)
			if !ok {
				continue
			}
			c := &out[id]
			if c.Support == 0 {
				*c = Candidate{Tag: r.Tag, Prob: 1}
			}
			c.Support++
			c.Prob *= 1 - table.Prob(list.Name, i+1)
		}
	}
	n := 0
	for _, c := range out {
		if c.Support > 0 {
			c.Prob = 1 - c.Prob
			out[n] = c
			n++
		}
	}
	out = out[:n]
	// Stable: the slots are in index order, which breaks the ties left.
	slices.SortStableFunc(out, func(a, b Candidate) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return cmp.Compare(b.Support, a.Support)
	})
	return out
}
