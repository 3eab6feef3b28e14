package separator

import (
	"cmp"
	"slices"
)

// This file implements the two heuristics of the BYU record-boundary
// discovery system (Embley, Jiang, Ng — SIGMOD'99) that Omini does NOT
// adopt, so the paper's Section 6.7 comparison can be reproduced: HC
// (highest count) and IT (identifiable tag). The BYU system's other two
// heuristics, SD and RP, are shared with Omini; its ontology heuristic is
// human-dependent and excluded, exactly as in the paper.

// hc is the Highest Count heuristic: rank candidate tags by the number of
// times they appear as children of the chosen subtree. The paper found HC
// undesirable — it never appeared in the most successful combinations, and
// PP strictly generalizes it.
type hc struct{}

// HC returns the BYU highest count heuristic.
func HC() Heuristic { return hc{} }

func (hc) Name() string { return "HC" }

func (hc) Letter() byte { return 'H' }

func (hc) Rank(st *Stats) []Ranked {
	stats := st.tags
	type entry struct {
		tag   string
		count int
		first int
	}
	entries := make([]entry, 0, len(stats))
	for tag, s := range stats {
		st.g.Poll()
		entries = append(entries, entry{tag: tag, count: s.count, first: s.first})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return cmp.Compare(a.first, b.first)
	})
	out := make([]Ranked, len(entries))
	for i, e := range entries {
		out[i] = Ranked{Tag: e.tag, Score: float64(e.count)}
	}
	return out
}

// itList is the single predefined, pre-ranked separator list the IT
// heuristic uses for every page regardless of subtree type — the
// inflexibility that motivated Omini's IPS ("instead of using the same list
// of pre-determined and ranked candidate tags for every tag tree, a
// different list is used based on the subtree that is chosen").
var itList = []string{
	"hr", "p", "table", "tr", "li", "dt", "ul", "dl", "blockquote", "pre",
	"div", "b", "font", "a",
}

// itMinCount mirrors the RP/IPS occurrence threshold.
const itMinCount = 2

// it is the BYU Identifiable Tag heuristic.
type it struct{}

// IT returns the BYU identifiable tag heuristic.
func IT() Heuristic { return it{} }

func (it) Name() string { return "IT" }

func (it) Letter() byte { return 'T' }

func (it) Rank(st *Stats) []Ranked {
	stats := st.tags
	var out []Ranked
	for pos, tag := range itList {
		st.g.Poll()
		s, ok := stats[tag]
		if !ok || s.count < itMinCount {
			continue
		}
		out = append(out, Ranked{Tag: tag, Score: float64(pos + 1)})
	}
	return out
}
