package eval

import (
	"omini/internal/corpus"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// SubtreeDist is one row of the subtree-heuristic evaluation: how often a
// heuristic's rank-k subtree is the ground-truth minimal object-rich
// subtree. The paper runs this comparison qualitatively (Table 1) and
// defers the numbers to its technical report; this experiment fills the
// gap and doubles as the ablation for the compound algorithm.
type SubtreeDist struct {
	Name    string
	Rank    [MaxRank]float64
	Success float64
}

// SubtreeHeuristicDist scores a subtree heuristic over a page collection,
// averaging per-site as the separator evaluation does.
func SubtreeHeuristicDist(h subtree.Heuristic, sites []corpus.SitePages) (SubtreeDist, error) {
	d := SubtreeDist{Name: h.Name()}
	var rankSum [MaxRank]float64
	nSites := 0
	for _, sp := range sites {
		if len(sp.Pages) == 0 {
			continue
		}
		nSites++
		var hist [MaxRank]int
		for _, page := range sp.Pages {
			root, err := tagtree.Parse(page.HTML)
			if err != nil {
				return d, err
			}
			ranked, err := h.Rank(root, nil)
			if err != nil {
				return d, err
			}
			limit := MaxRank
			if len(ranked) < limit {
				limit = len(ranked)
			}
			for k := 0; k < limit; k++ {
				if tagtree.Path(ranked[k].Node) == page.Truth.SubtreePath {
					hist[k]++
					break
				}
			}
		}
		pages := float64(len(sp.Pages))
		for k := 0; k < MaxRank; k++ {
			rankSum[k] += float64(hist[k]) / pages
		}
	}
	if nSites > 0 {
		for k := 0; k < MaxRank; k++ {
			d.Rank[k] = rankSum[k] / float64(nSites)
		}
	}
	d.Success = d.Rank[0]
	return d, nil
}

// SubtreeSweep evaluates HF, GSI, LTC and the compound algorithm over the
// collection.
func SubtreeSweep(sites []corpus.SitePages) ([]SubtreeDist, error) {
	heuristics := []subtree.Heuristic{
		subtree.HF(), subtree.GSI(), subtree.LTC(), subtree.Compound(),
	}
	out := make([]SubtreeDist, 0, len(heuristics))
	for _, h := range heuristics {
		d, err := SubtreeHeuristicDist(h, sites)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
