// Package eval implements the experiment harness of the paper's Section 6:
// rank-probability distributions of the separator heuristics (Tables 10,
// 13, 20), precision/recall (Tables 14, 15), the 26-combination sweep
// (Table 11), the BYU comparison (Tables 19, 20), the subtree-heuristic
// evaluation behind Table 1, and the per-phase timing studies (Tables 16,
// 17).
//
// Methodology follows the paper: pages are labelled with the minimal
// subtree path and all correct separator tags (the corpus carries this
// ground truth); heuristics run against the labelled subtree; success is
// the per-site fraction of pages whose rank-1 candidate is correct,
// averaged over sites.
package eval

import (
	"fmt"

	"omini/internal/combine"
	"omini/internal/corpus"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

// MaxRank is the deepest rank the distributions report, matching the
// paper's five-column tables.
const MaxRank = 5

// PreparedPage is a corpus page parsed once, with every heuristic's ranking
// cached, so combination sweeps do not re-run heuristics.
type PreparedPage struct {
	Page sitegen.Page
	// Sub is the ground-truth object-rich subtree.
	Sub *tagtree.Node
	// Lists holds each heuristic's ranking on Sub, by heuristic name.
	Lists map[string][]separator.Ranked
	// Stats indexes Sub; combination accumulates and breaks ties by its
	// tag indices.
	Stats *separator.Stats
}

// PreparedSite is one site's prepared pages.
type PreparedSite struct {
	Site  string
	Pages []PreparedPage
}

// Prepare parses every page of the collection and caches all heuristic
// rankings. Heuristics must have unique names; the Omini five plus BYU's
// HC and IT is the usual set.
func Prepare(sites []corpus.SitePages, heuristics []separator.Heuristic) ([]PreparedSite, error) {
	out := make([]PreparedSite, 0, len(sites))
	for _, sp := range sites {
		ps := PreparedSite{Site: sp.Spec.Name, Pages: make([]PreparedPage, 0, len(sp.Pages))}
		for _, page := range sp.Pages {
			prepared, err := preparePage(page, heuristics)
			if err != nil {
				return nil, fmt.Errorf("eval: prepare %s: %w", page.Name, err)
			}
			ps.Pages = append(ps.Pages, prepared)
		}
		out = append(out, ps)
	}
	return out, nil
}

func preparePage(page sitegen.Page, heuristics []separator.Heuristic) (PreparedPage, error) {
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		return PreparedPage{}, err
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		return PreparedPage{}, fmt.Errorf("truth path %q does not resolve", page.Truth.SubtreePath)
	}
	st, err := separator.NewStats(sub, nil)
	if err != nil {
		return PreparedPage{}, err
	}
	lists := make(map[string][]separator.Ranked, len(heuristics))
	for _, h := range heuristics {
		if lists[h.Name()], err = h.Rank(st); err != nil {
			return PreparedPage{}, err
		}
	}
	return PreparedPage{
		Page:  page,
		Sub:   sub,
		Lists: lists,
		Stats: st,
	}, nil
}

// Dist is a rank-probability row of Tables 10/13/20 plus the
// success/precision/recall triple of Tables 14/15.
type Dist struct {
	// Name identifies the heuristic or combination.
	Name string
	// Rank[k] is the probability (averaged per site) that the correct
	// separator appears at rank k+1.
	Rank [MaxRank]float64
	// Success is Rank[0]: the probability the top candidate is correct.
	Success float64
	// Precision is TP/(TP+FP): the fraction of produced answers that are
	// correct.
	Precision float64
	// Recall is TP/(TP+FN) = Success: the fraction of pages whose
	// separator is found.
	Recall float64
}

// ranker turns a prepared page into a candidate tag ranking.
type ranker func(p *PreparedPage) []string

// distOf scores a ranker over the prepared sites: per-site rank histograms
// and TP/FP/FN tallies, averaged across sites as the paper does.
func distOf(name string, sites []PreparedSite, rank ranker) Dist {
	d := Dist{Name: name}
	var (
		rankSum   [MaxRank]float64
		precSum   float64
		precSites int
		nSites    int
	)
	for _, site := range sites {
		if len(site.Pages) == 0 {
			continue
		}
		nSites++
		var hist [MaxRank]int
		var tp, fp int
		for i := range site.Pages {
			p := &site.Pages[i]
			tags := rank(p)
			r := correctRank(tags, p.Page.Truth)
			if r >= 1 && r <= MaxRank {
				hist[r-1]++
			}
			if len(tags) == 0 {
				continue // no answer: a false negative, not a false positive
			}
			if p.Page.Truth.CorrectSeparator(tags[0]) {
				tp++
			} else {
				fp++
			}
		}
		pages := float64(len(site.Pages))
		for k := 0; k < MaxRank; k++ {
			rankSum[k] += float64(hist[k]) / pages
		}
		if tp+fp > 0 {
			precSum += float64(tp) / float64(tp+fp)
			precSites++
		}
	}
	if nSites == 0 {
		return d
	}
	for k := 0; k < MaxRank; k++ {
		d.Rank[k] = rankSum[k] / float64(nSites)
	}
	d.Success = d.Rank[0]
	d.Recall = d.Success
	if precSites > 0 {
		d.Precision = precSum / float64(precSites)
	}
	return d
}

// correctRank returns the 1-based rank of the first correct separator tag
// in the candidate list, or 0 if absent.
func correctRank(tags []string, truth sitegen.Truth) int {
	for i, tag := range tags {
		if truth.CorrectSeparator(tag) {
			return i + 1
		}
	}
	return 0
}

// HeuristicDist scores one heuristic (by name) over the prepared sites —
// one row of Table 10/13/20.
func HeuristicDist(name string, sites []PreparedSite) Dist {
	return distOf(name, sites, func(p *PreparedPage) []string {
		return separator.Tags(p.Lists[name])
	})
}

// CombinationDist scores a heuristic combination under the probability
// table — the RSIPB row of Table 13, or any Table 11/20 entry.
func CombinationDist(combo combine.Combination, table combine.ProbTable, sites []PreparedSite) Dist {
	return distOf(combo.Name, sites, func(p *PreparedPage) []string {
		lists := make([]combine.RankedList, len(combo.Heuristics))
		for i, h := range combo.Heuristics {
			lists[i] = combine.RankedList{Name: h.Name(), Ranked: p.Lists[h.Name()]}
		}
		cands := combine.CombineLists(lists, table, p.Stats)
		tags := make([]string, len(cands))
		for i, c := range cands {
			tags[i] = c.Tag
		}
		return tags
	})
}

// MeasureProbs converts measured rank distributions into a probability
// table for combination — how the paper turns Table 10 into the combined
// algorithm's evidence.
func MeasureProbs(sites []PreparedSite, heuristics []separator.Heuristic) combine.ProbTable {
	table := make(combine.ProbTable, len(heuristics))
	for _, h := range heuristics {
		d := HeuristicDist(h.Name(), sites)
		probs := make([]float64, MaxRank)
		copy(probs, d.Rank[:])
		table[h.Name()] = probs
	}
	return table
}

// SweepCombinations scores every combination of the given heuristics with
// at least two members (the 26 combinations of Table 11 for the Omini
// five), returning them in the enumeration order of combine.Combinations.
func SweepCombinations(heuristics []separator.Heuristic, table combine.ProbTable, sites []PreparedSite) []Dist {
	combos := combine.Combinations(heuristics, 2)
	out := make([]Dist, len(combos))
	for i, c := range combos {
		out[i] = CombinationDist(c, table, sites)
	}
	return out
}
