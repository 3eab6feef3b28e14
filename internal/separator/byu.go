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

func (hc) Rank(st *Stats) ([]Ranked, error) {
	// Each entry is a tag index with its count; indices follow first
	// appearance, which breaks ties.
	entries := st.workList()
	for id, s := range st.tags[:st.k] {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		entries = append(entries, cand{id: id, n: s.count})
	}
	slices.SortFunc(entries, func(a, b cand) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.id, b.id)
	})
	out := st.out(len(entries))
	for _, e := range entries {
		out = append(out, Ranked{Tag: st.tags[e.id].tag, Score: float64(e.n)})
	}
	return out, nil
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

func (it) Rank(st *Stats) ([]Ranked, error) {
	out := st.out(min(st.k, len(itList)))
	for pos, tag := range itList {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		id, ok := st.Index(tag)
		if !ok || st.tags[id].count < itMinCount {
			continue
		}
		out = append(out, Ranked{Tag: st.tags[id].tag, Score: float64(pos + 1)})
	}
	return out, nil
}
