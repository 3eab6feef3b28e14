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
// the subtree serves every heuristic and the tie-break map. Each
// heuristic's own ranking is returned too (the combination's input, for
// the decision trace).
//
// The index scan polls the guard's page context and the guard is
// re-checked between heuristics, so a cancelled or out-of-time page stops
// after the current heuristic instead of ranking all of them. A nil guard
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
		lists[i] = RankedList{Name: h.Name(), Ranked: h.Rank(st)}
	}
	if err := g.Check(); err != nil {
		return nil, nil, err
	}
	return CombineLists(lists, table, st), lists, nil
}

// CombineLists merges pre-computed heuristic rankings, as Combine does.
// Equal-probability candidates are ordered by their first appearance among
// the children of the subtree st indexes (separator.Stats.FirstIndex).
func CombineLists(lists []RankedList, table ProbTable, st *separator.Stats) []Candidate {
	type acc struct {
		miss    float64 // Π (1 − p_h)
		support int
	}
	accs := make(map[string]*acc)
	var tags []string
	for _, list := range lists {
		for i, r := range list.Ranked {
			p := table.Prob(list.Name, i+1)
			a, ok := accs[r.Tag]
			if !ok {
				a = &acc{miss: 1}
				accs[r.Tag] = a
				tags = append(tags, r.Tag)
			}
			a.support++
			a.miss *= 1 - p
		}
	}
	out := make([]Candidate, 0, len(tags))
	for _, tag := range tags {
		a := accs[tag]
		out = append(out, Candidate{Tag: tag, Prob: 1 - a.miss, Support: a.support})
	}
	sortCandidates(out, st)
	return out
}

func sortCandidates(cands []Candidate, st *separator.Stats) {
	pos := func(tag string) int {
		if p, ok := st.FirstIndex(tag); ok {
			return p
		}
		return 1 << 30
	}
	// Insertion sort keeps the dependency surface zero and the candidate
	// lists are tiny (one entry per distinct child tag).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			less := b.Prob > a.Prob ||
				(b.Prob == a.Prob && b.Support > a.Support) ||
				(b.Prob == a.Prob && b.Support == a.Support && pos(b.Tag) < pos(a.Tag))
			if !less {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
}
