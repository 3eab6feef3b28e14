package separator

import (
	"cmp"
	"math"
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

func (sd) Rank(st *Stats) []Ranked {
	stats := st.tags
	if len(stats) == 0 {
		return nil
	}
	// Per Section 5.1, σ is computed for the "highest count tags": tags
	// whose appearance count is comparable to the maximum. Rare tags (a
	// banner, one form) cannot separate a result list, and a tag with a
	// single gap would get a degenerate σ of 0.
	maxCount := 0
	for _, s := range stats {
		if s.count > maxCount {
			maxCount = s.count
		}
	}
	threshold := maxCount / 3
	if threshold < 2 {
		threshold = 2
	}

	type entry struct {
		tag   string
		sigma float64
		count int
		first int
	}
	var entries []entry
	for tag, s := range stats {
		st.g.Poll()
		if s.count < threshold {
			continue
		}
		gaps := st.gaps(tag)
		if len(gaps) == 0 {
			continue
		}
		entries = append(entries, entry{
			tag:   tag,
			sigma: stddev(gaps),
			count: s.count,
			first: s.first,
		})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.sigma != b.sigma {
			return cmp.Compare(a.sigma, b.sigma)
		}
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return cmp.Compare(a.first, b.first)
	})
	// Near-tie adjustment: candidates of near-identical regularity (σ
	// within 5%) are ordered by frequency instead. The LOC page's hr and
	// pre bound the same objects and measure nearly the same σ; the extra
	// occurrence of the true bracketing tag (hr, 21 vs 20) is the tell.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0; j-- {
			hi, lo := entries[j], entries[j-1]
			near := hi.sigma-lo.sigma <= 0.05*hi.sigma
			better := hi.count > lo.count ||
				(hi.count == lo.count && hi.first < lo.first)
			if !near || !better {
				break
			}
			entries[j-1], entries[j] = hi, lo
		}
	}
	out := make([]Ranked, len(entries))
	for i, e := range entries {
		out[i] = Ranked{Tag: e.tag, Score: e.sigma}
	}
	return out
}

// The "distance in terms of the number of characters" of Section 5.1 —
// the content spanned from one occurrence of a tag to the next, including
// the occurrence's own content — is served by Stats.gaps from the prefix
// sums built in NewStats's single child pass.

// stddev is the population standard deviation of xs.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return math.Sqrt(variance)
}
