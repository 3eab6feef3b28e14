package separator

import (
	"cmp"
	"slices"
)

// sd is the Standard Deviation heuristic of Section 5.1 (adopted unchanged
// from Embley et al.): multiple instances of one object type are about the
// same size, so the correct separator tag shows the *smallest* standard
// deviation in the distance (in characters of content) between consecutive
// occurrences. Candidates are ranked ascending by σ.
type sd struct{}

// SD returns the standard deviation heuristic.
func SD() Heuristic { return sd{} }

func (sd) Name() string { return "SD" }

func (sd) Letter() byte { return 'S' }

func (sd) Rank(st *Stats) ([]Ranked, error) {
	tags := st.tags[:st.k]
	if len(tags) == 0 {
		return nil, nil
	}
	// Per Section 5.1, σ is computed for the "highest count tags": tags
	// whose appearance count is comparable to the maximum. Rare tags (a
	// banner, one form) cannot separate a result list, and a tag with a
	// single gap would get a degenerate σ of 0.
	maxCount := 0
	for _, s := range tags {
		maxCount = max(maxCount, s.count)
	}
	threshold := max(maxCount/3, 2)

	// Each entry is a tag index with its σ and count. Indices follow
	// first appearance, so they break the remaining ties.
	entries := st.workList()
	for id, s := range tags {
		if err := st.g.Poll(); err != nil {
			return nil, err
		}
		if s.count < threshold {
			continue
		}
		sigma, err := st.sigma(id)
		if err != nil {
			return nil, err
		}
		entries = append(entries, cand{id: id, score: sigma, n: s.count})
	}
	slices.SortFunc(entries, func(a, b cand) int {
		if a.score != b.score {
			return cmp.Compare(a.score, b.score)
		}
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.id, b.id)
	})
	// Near-tie adjustment: candidates of near-identical regularity (σ
	// within 5%) are ordered by frequency instead. The LOC page's hr and
	// pre bound the same objects and measure nearly the same σ; the extra
	// occurrence of the true bracketing tag (hr, 21 vs 20) is the tell.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0; j-- {
			hi, lo := entries[j], entries[j-1]
			near := hi.score-lo.score <= 0.05*hi.score
			better := hi.n > lo.n || (hi.n == lo.n && hi.id < lo.id)
			if !near || !better {
				break
			}
			entries[j-1], entries[j] = hi, lo
		}
	}
	out := st.out(len(entries))
	for _, e := range entries {
		out = append(out, Ranked{Tag: tags[e.id].tag, Score: e.score})
	}
	return out, nil
}

// The "distance in terms of the number of characters" of Section 5.1 —
// the content spanned from one occurrence of a tag to the next, including
// the occurrence's own content — is served by Stats.sigma from the prefix
// sums built in NewStats's child pass.
