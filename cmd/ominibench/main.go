// Command ominibench regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic corpus, printing each in the
// paper's layout. Run with no flags for the full suite, or select
// experiments:
//
//	ominibench -table 11            # the 26-combination sweep
//	ominibench -table fig5,1,3      # canoe tree, subtree ranking, RP pairs
//	ominibench -pages 10            # smaller corpus for a quick pass
//	ominibench -metrics ...         # dump pipeline metrics to stderr after
//
// Absolute numbers depend on the synthetic corpus (see DESIGN.md §3); the
// shapes — who wins, by how much, where the crossovers fall — reproduce the
// paper. EXPERIMENTS.md records a paper-vs-measured comparison per table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/eval"
	"omini/internal/obs"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

func main() {
	var (
		tables   = flag.String("table", "all", "comma-separated experiments: fig1,fig5,1,2,3,5,6,8,10,11,13,14,15,16,17,19,20,subtree,objects,sites,confidence or 'all'")
		pages    = flag.Int("pages", 0, "pages per site (0 = paper-sized corpus: 33 test / 60 experimental / 40 comparison)")
		repeats  = flag.Int("repeats", 10, "timing repetitions per page (Tables 16/17)")
		metrics  = flag.Bool("metrics", false, "dump the metrics registry (per-phase histograms, counters) to stderr after the run")
		maxBytes = flag.Int("max-bytes", 0, "resource governor input-size cap for the end-to-end experiments (0 = default, -1 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "resource governor per-page deadline for the end-to-end experiments (0 = default, negative = unlimited)")
	)
	flag.Parse()
	limits := core.Limits{MaxInputBytes: *maxBytes, Deadline: *timeout}
	err := run(os.Stdout, *tables, *pages, *repeats, limits)
	if *metrics {
		// Every extraction the experiments ran recorded its phase spans in
		// the default registry; the exposition shows the aggregate cost
		// profile of the whole suite.
		_ = obs.Default.WritePrometheus(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ominibench:", err)
		os.Exit(1)
	}
}

// harness carries the lazily prepared corpus shared by the experiments.
type harness struct {
	w       io.Writer
	corpus  *corpus.Corpus
	repeats int
	limits  core.Limits

	heuristics []separator.Heuristic
	testPrep   []eval.PreparedSite
	expPrep    []eval.PreparedSite
	cmpPrep    []eval.PreparedSite
	probs      combine.ProbTable
}

func run(w io.Writer, tables string, pages, repeats int, limits core.Limits) error {
	h := &harness{
		w:          w,
		corpus:     &corpus.Corpus{PagesPerSite: pages},
		repeats:    repeats,
		limits:     limits,
		heuristics: append(separator.All(), separator.HC(), separator.IT()),
	}
	type experiment struct {
		name string
		desc string
		run  func() error
	}
	experiments := []experiment{
		{"fig1", "Figures 1-2: Library of Congress tag tree and minimal subtree", h.figureLOC},
		{"fig5", "Figures 4-5: canoe.com tag tree", h.figureCanoe},
		{"1", "Table 1: HF vs GSI vs LTC top-5 subtrees on the canoe tree", h.table1},
		{"2", "Table 2: SD values on the LOC minimal subtree", h.table2},
		{"3", "Table 3: RP pair ranking on the canoe subtree", h.table3},
		{"5", "Tables 4-5: IPS tag lists and measured separator distribution", h.table5},
		{"6", "Table 6: SB sibling pairs on canoe and LOC", h.table6},
		{"8", "Tables 7-8: PP paths and tag rankings", h.table8},
		{"10", "Table 10: heuristic rank probabilities, test set", h.table10},
		{"11", "Table 11: success of all 26 heuristic combinations, test set", h.table11},
		{"13", "Table 13: heuristic rank probabilities incl. RSIPB, experimental set", h.table13},
		{"14", "Table 14: success/precision/recall, test set", h.table14},
		{"15", "Table 15: success/precision/recall, experimental set", h.table15},
		{"16", "Table 16: per-phase execution time, full discovery", h.table16},
		{"17", "Table 17: per-phase execution time, cached rules", h.table17},
		{"19", "Table 19: Omini vs BYU on the comparison sites", h.table19},
		{"20", "Table 20: BYU heuristics and combinations, test set", h.table20},
		{"subtree", "Extra: subtree heuristic success (HF/GSI/LTC/Compound)", h.tableSubtree},
		{"objects", "Extra: end-to-end object precision/recall (abstract claim)", h.tableObjects},
		{"sites", "Extra: per-site success breakdown (test set)", h.tableSites},
		{"confidence", "Extra: confidence calibration (feedback-based refinement hook)", h.tableConfidence},
	}
	want := make(map[string]bool)
	all := tables == "all"
	for _, t := range strings.Split(tables, ",") {
		want[strings.TrimSpace(t)] = true
	}
	for _, ex := range experiments {
		if !all && !want[ex.name] {
			continue
		}
		fmt.Fprintf(w, "=== %s ===\n", ex.desc)
		if err := ex.run(); err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	return nil
}

// prepare memoizes the heavy per-set preparation.
func (h *harness) prepare(which string) ([]eval.PreparedSite, error) {
	var (
		cache *[]eval.PreparedSite
		sites []corpus.SitePages
	)
	switch which {
	case "test":
		cache, sites = &h.testPrep, h.corpus.TestSet()
	case "experimental":
		cache, sites = &h.expPrep, h.corpus.ExperimentalSet()
	default:
		cache, sites = &h.cmpPrep, h.corpus.ComparisonSet()
	}
	if *cache == nil {
		prep, err := eval.Prepare(sites, h.heuristics)
		if err != nil {
			return nil, err
		}
		*cache = prep
	}
	return *cache, nil
}

// measuredProbs memoizes the test-set probability table used as combination
// evidence (the paper's use of Table 10).
func (h *harness) measuredProbs() (combine.ProbTable, error) {
	if h.probs == nil {
		prep, err := h.prepare("test")
		if err != nil {
			return nil, err
		}
		h.probs = eval.MeasureProbs(prep, h.heuristics)
	}
	return h.probs, nil
}

func (h *harness) figureLOC() error {
	page := sitegen.LOC()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%s\n", tagtree.Render(root, tagtree.RenderOptions{MaxDepth: 3, ShowMetrics: true}))
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	hrs := root.FindAll("hr")
	min := tagtree.MinimalSubtree(hrs)
	fmt.Fprintf(h.w, "minimal subtree containing all %d hr nodes: %s (truth: %s)\n",
		len(hrs), tagtree.Path(min), tagtree.Path(sub))
	fmt.Fprintf(h.w, "child tag counts: %s\n\n", tagtree.Outline(sub))
	return nil
}

func (h *harness) figureCanoe() error {
	page := sitegen.Canoe()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%s\n", tagtree.Render(root, tagtree.RenderOptions{MaxDepth: 4, ShowMetrics: true}))
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	fmt.Fprintf(h.w, "object-rich subtree: %s, %s\n\n", page.Truth.SubtreePath, tagtree.Outline(sub))
	return nil
}

func (h *harness) table1() error {
	root, err := tagtree.Parse(sitegen.Canoe().HTML)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%-4s  %-55s %-12s\n", "Rank", "Subtree", "Score")
	for _, heur := range []subtree.Heuristic{subtree.HF(), subtree.GSI(), subtree.LTC(), subtree.Compound()} {
		fmt.Fprintf(h.w, "-- %s --\n", heur.Name())
		ranked, err := heur.Rank(root, nil)
		if err != nil {
			return err
		}
		for i, r := range subtree.Top(ranked, 5) {
			fmt.Fprintf(h.w, "%-4d  %-55s %12.1f\n", i+1, tagtree.Path(r.Node), r.Score)
		}
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table2() error {
	page := sitegen.LOC()
	sub, err := truthSubtree(page)
	if err != nil {
		return err
	}
	st, err := separator.NewStats(sub, nil)
	if err != nil {
		return err
	}
	ranked, err := separator.SD().Rank(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%-4s %-6s %s\n", "Rank", "Tag", "Standard Deviation")
	for i, r := range ranked {
		fmt.Fprintf(h.w, "%-4d %-6s %8.1f\n", i+1, r.Tag, r.Score)
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table3() error {
	sub, err := truthSubtree(sitegen.Canoe())
	if err != nil {
		return err
	}
	pairs, err := separator.RPPairs(sub, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%-16s %-10s %s\n", "Tag Pair", "Pair Count", "Difference")
	for _, p := range pairs {
		fmt.Fprintf(h.w, "%-16s %-10d %d\n", p.Pair.First+", "+p.Pair.Second, p.Count, p.Diff)
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table5() error {
	fmt.Fprintf(h.w, "IPS per-subtree tag lists (Table 4, from the paper):\n")
	fmt.Fprintf(h.w, "global IPSList: %s\n\n", strings.Join(separator.IPSList, ","))
	// Table 5: distribution of ground-truth separator tags over the
	// corpus, the measured analogue of the paper's usage statistics.
	counts := make(map[string]int)
	total := 0
	for _, spec := range corpus.AllSpecs() {
		page := spec.Page(0)
		counts[page.Truth.Separators[0]]++
		total++
	}
	type row struct {
		tag string
		pct float64
	}
	rows := make([]row, 0, len(counts))
	for tag, n := range counts {
		rows = append(rows, row{tag, 100 * float64(n) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pct != rows[j].pct {
			return rows[i].pct > rows[j].pct
		}
		return rows[i].tag < rows[j].tag
	})
	fmt.Fprintf(h.w, "%-10s %s\n", "Tag", "% of sites using it as object separator")
	for _, r := range rows {
		fmt.Fprintf(h.w, "%-10s %5.1f\n", r.tag, r.pct)
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table6() error {
	for _, page := range []sitegen.Page{sitegen.Canoe(), sitegen.LOC()} {
		sub, err := truthSubtree(page)
		if err != nil {
			return err
		}
		pairs, err := separator.SBPairs(sub, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.w, "-- %s --\n%-16s %s\n", page.Site, "Pair", "Count")
		for _, p := range pairs {
			fmt.Fprintf(h.w, "%-16s %d\n", p.Pair.First+", "+p.Pair.Second, p.Count)
		}
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table8() error {
	for _, page := range []sitegen.Page{sitegen.Canoe(), sitegen.LOC()} {
		sub, err := truthSubtree(page)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.w, "-- %s partial paths --\n", page.Site)
		paths, err := separator.PPPaths(sub, nil)
		if err != nil {
			return err
		}
		for i, pc := range paths {
			if i >= 12 {
				fmt.Fprintf(h.w, "... (%d more)\n", len(paths)-i)
				break
			}
			fmt.Fprintf(h.w, "%-44s %d\n", pc.Path, pc.Count)
		}
		st, err := separator.NewStats(sub, nil)
		if err != nil {
			return err
		}
		ranked, err := separator.PP().Rank(st)
		if err != nil {
			return err
		}
		fmt.Fprintf(h.w, "-- %s PP tag ranking --\n", page.Site)
		for i, r := range ranked {
			fmt.Fprintf(h.w, "%d. %-8s %.0f\n", i+1, r.Tag, r.Score)
		}
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) table10() error {
	prep, err := h.prepare("test")
	if err != nil {
		return err
	}
	eval.WriteDistTable(h.w, "Probability rankings for object separator heuristics (test data)",
		h.dists(prep, separator.All(), nil))
	return nil
}

func (h *harness) table11() error {
	prep, err := h.prepare("test")
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	sweep := eval.SweepCombinations(separator.All(), probs, prep)
	eval.WriteComboTable(h.w, "Success rates for heuristic combinations (test data)", sweep)
	return nil
}

func (h *harness) table13() error {
	prep, err := h.prepare("experimental")
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	dists := h.dists(prep, separator.All(), nil)
	dists = append(dists, eval.CombinationDist(combine.RSIPB(), probs, prep))
	eval.WriteDistTable(h.w, "Probability rankings incl. RSIPB (experimental data)", dists)
	return nil
}

func (h *harness) table14() error { return h.prTable("test", "Success/precision/recall (test data)") }

func (h *harness) table15() error {
	return h.prTable("experimental", "Success/precision/recall (experimental data)")
}

func (h *harness) prTable(set, title string) error {
	prep, err := h.prepare(set)
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	dists := h.dists(prep, separator.All(), nil)
	dists = append(dists, eval.CombinationDist(combine.RSIPB(), probs, prep))
	eval.WritePRTable(h.w, title, dists)
	return nil
}

func (h *harness) table16() error { return h.timing(false) }

func (h *harness) table17() error { return h.timing(true) }

func (h *harness) timing(useRules bool) error {
	opts := eval.TimingOptions{Repeats: h.repeats, UseRules: useRules}
	test, err := eval.MeasureTiming("Test", h.corpus.TestSet(), opts)
	if err != nil {
		return err
	}
	exp, err := eval.MeasureTiming("Experimental", h.corpus.ExperimentalSet(), opts)
	if err != nil {
		return err
	}
	combined := eval.CombineRows("Combined", test, exp)
	title := "Execution time for object extraction (full discovery)"
	if useRules {
		title = "Execution time for object extraction with cached rules"
	}
	eval.WriteTimingTable(h.w, title, !useRules, []eval.TimingRow{test, exp, combined})
	return nil
}

func (h *harness) table19() error {
	prep, err := h.prepare("comparison")
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	fmt.Fprintf(h.w, "%-10s %-8s      %-10s %-8s\n", "Embley", "Success", "Extended", "Success")
	pairs := [][2]string{{"RP", "RP"}, {"SD", "SD"}, {"IT", "IPS"}, {"HC", "SB"}, {"", "PP"}}
	for _, p := range pairs {
		left, right := "", ""
		if p[0] != "" {
			d := eval.HeuristicDist(p[0], prep)
			left = fmt.Sprintf("%-10s %-8.0f", p[0], d.Success*100)
		} else {
			left = fmt.Sprintf("%-10s %-8s", "", "")
		}
		d := eval.HeuristicDist(p[1], prep)
		right = fmt.Sprintf("%-10s %-8.0f", p[1], d.Success*100)
		fmt.Fprintf(h.w, "%s      %s\n", left, right)
	}
	byu := eval.CombinationDist(combine.HTRS(), probs, prep)
	omini := eval.CombinationDist(combine.RSIPB(), probs, prep)
	fmt.Fprintf(h.w, "%-10s %-8.0f      %-10s %-8.0f\n\n", "HTRS", byu.Success*100, "RSIPB", omini.Success*100)
	return nil
}

func (h *harness) table20() error {
	prep, err := h.prepare("test")
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	byuHeuristics := combine.HTRS().Heuristics
	eval.WriteDistTable(h.w, "BYU heuristics (test data)", h.dists(prep, byuHeuristics, nil))
	var combos []eval.Dist
	for _, c := range combine.Combinations(byuHeuristics, 2) {
		combos = append(combos, eval.CombinationDist(c, probs, prep))
	}
	eval.WriteDistTable(h.w, "BYU combinations (test data)", combos)
	return nil
}

func (h *harness) tableSubtree() error {
	for _, set := range []struct {
		name  string
		sites []corpus.SitePages
	}{
		{"test", h.corpus.TestSet()},
		{"experimental", h.corpus.ExperimentalSet()},
	} {
		dists, err := eval.SubtreeSweep(set.sites)
		if err != nil {
			return err
		}
		eval.WriteSubtreeTable(h.w, "Object-rich subtree heuristics ("+set.name+" data)", dists)
	}
	return nil
}

// dists evaluates the given heuristics over prepared sites.
func (h *harness) dists(prep []eval.PreparedSite, hs []separator.Heuristic, _ combine.ProbTable) []eval.Dist {
	out := make([]eval.Dist, 0, len(hs))
	for _, heur := range hs {
		out = append(out, eval.HeuristicDist(heur.Name(), prep))
	}
	return out
}

func (h *harness) tableObjects() error {
	fmt.Fprintf(h.w, "%-14s %10s %8s %8s\n", "Collection", "Precision", "Recall", "Pages")
	for _, set := range []struct {
		name  string
		sites []corpus.SitePages
	}{
		{"Test", h.corpus.TestSet()},
		{"Experimental", h.corpus.ExperimentalSet()},
		{"Comparison", h.corpus.ComparisonSet()},
	} {
		pr := eval.MeasureObjectPR(set.name, set.sites, core.Options{Limits: h.limits})
		fmt.Fprintf(h.w, "%-14s %10.3f %8.3f %8d\n", pr.Label, pr.Precision, pr.Recall, pr.Pages)
	}
	fmt.Fprintln(h.w)
	return nil
}

func (h *harness) tableSites() error {
	prep, err := h.prepare("test")
	if err != nil {
		return err
	}
	probs, err := h.measuredProbs()
	if err != nil {
		return err
	}
	combined := make(map[string]float64, len(prep))
	for _, site := range prep {
		one := []eval.PreparedSite{site}
		combined[site.Site] = eval.CombinationDist(combine.RSIPB(), probs, one).Success
	}
	names := []string{"SD", "RP", "IPS", "PP", "SB", "HC", "IT"}
	eval.WriteSiteBreakdown(h.w, "Per-site separator success (test data)", prep, names, combined)
	return nil
}

func (h *harness) tableConfidence() error {
	sites := append(h.corpus.TestSet(), h.corpus.ComparisonSet()...)
	buckets := eval.ConfidenceCalibration(sites, nil)
	fmt.Fprintf(h.w, "%-16s %8s %9s\n", "Confidence", "Pages", "Accuracy")
	for _, b := range buckets {
		fmt.Fprintf(h.w, "[%4.2f, %4.2f)     %8d %9.2f\n", b.Lo, b.Hi, b.Pages, b.Accuracy)
	}
	fmt.Fprintln(h.w)
	return nil
}

func truthSubtree(page sitegen.Page) (*tagtree.Node, error) {
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		return nil, err
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		return nil, fmt.Errorf("truth path %q unresolvable", page.Truth.SubtreePath)
	}
	return sub, nil
}
