package eval

import (
	"math"
	"strings"
	"testing"

	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/extract"
	"omini/internal/obs"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

// smallCorpus returns a corpus small enough for unit tests.
func smallCorpus() *corpus.Corpus {
	return &corpus.Corpus{PagesPerSite: 6}
}

func allHeuristics() []separator.Heuristic {
	return append(separator.All(), separator.HC(), separator.IT())
}

func preparedTest(t *testing.T, c *corpus.Corpus) []PreparedSite {
	t.Helper()
	prepared, err := Prepare(c.TestSet(), allHeuristics())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return prepared
}

func TestPrepare(t *testing.T) {
	prepared := preparedTest(t, smallCorpus())
	if len(prepared) != 15 {
		t.Fatalf("prepared %d sites", len(prepared))
	}
	for _, site := range prepared {
		for _, p := range site.Pages {
			if p.Sub == nil {
				t.Fatalf("%s: nil subtree", p.Page.Name)
			}
			if len(p.Lists) != 7 {
				t.Fatalf("%s: %d heuristic lists", p.Page.Name, len(p.Lists))
			}
		}
	}
}

func TestDistributionsWellFormed(t *testing.T) {
	prepared := preparedTest(t, smallCorpus())
	for _, h := range allHeuristics() {
		d := HeuristicDist(h.Name(), prepared)
		total := 0.0
		for _, p := range d.Rank {
			if p < 0 || p > 1 {
				t.Errorf("%s: rank prob %v out of range", h.Name(), p)
			}
			total += p
		}
		if total > 1+1e-9 {
			t.Errorf("%s: rank probs sum to %v > 1", h.Name(), total)
		}
		if d.Success != d.Rank[0] || d.Recall != d.Success {
			t.Errorf("%s: success/recall inconsistent", h.Name())
		}
		if d.Precision < d.Success-1e-9 {
			t.Errorf("%s: precision %v below success %v", h.Name(), d.Precision, d.Success)
		}
	}
}

// The headline claim of the paper: the all-five combination beats every
// individual heuristic on every collection. Following the paper's
// methodology, the combination evidence is the rank-probability table
// measured on the test set (the paper's Table 10), not assumed.
func TestRSIPBBeatsEveryIndividualHeuristic(t *testing.T) {
	c := smallCorpus()
	prepared := preparedTest(t, c)
	table := MeasureProbs(prepared, allHeuristics())
	for _, set := range []struct {
		name      string
		sites     []corpus.SitePages
		tolerance float64
	}{
		{"test", c.TestSet(), 1e-9},
		// On the synthetic corpus IPS and PP stay near-perfect on the
		// validation and comparison collections (the paper's dipped to
		// 0.76-0.88), so the combination is allowed to tie them within a
		// small margin rather than strictly dominate; see EXPERIMENTS.md.
		{"experimental", c.ExperimentalSet(), 0.02},
		{"comparison", c.ComparisonSet(), 0.12},
	} {
		prep, err := Prepare(set.sites, allHeuristics())
		if err != nil {
			t.Fatal(err)
		}
		combined := CombinationDist(combine.RSIPB(), table, prep)
		for _, h := range separator.All() {
			d := HeuristicDist(h.Name(), prep)
			if combined.Success < d.Success-set.tolerance {
				t.Errorf("%s set: RSIPB %.3f below %s %.3f",
					set.name, combined.Success, h.Name(), d.Success)
			}
		}
		if combined.Success < 0.85 {
			t.Errorf("%s set: RSIPB success %.3f below 0.85", set.name, combined.Success)
		}
	}
}

// Section 6.7's claim: Omini's combination beats BYU's HTRS, decisively on
// the comparison sites.
func TestOminiBeatsBYU(t *testing.T) {
	c := smallCorpus()
	table := MeasureProbs(preparedTest(t, c), allHeuristics())
	prepared, err := Prepare(c.ComparisonSet(), allHeuristics())
	if err != nil {
		t.Fatal(err)
	}
	omini := CombinationDist(combine.RSIPB(), table, prepared)
	byu := CombinationDist(combine.HTRS(), table, prepared)
	if omini.Success <= byu.Success {
		t.Errorf("RSIPB %.3f not above HTRS %.3f on comparison sites",
			omini.Success, byu.Success)
	}
	if byu.Success > 0.80 {
		t.Errorf("HTRS %.3f too strong on comparison sites (paper: 0.59)", byu.Success)
	}
	// HC and IT individually collapse on these sites (Table 19: 19-40%).
	for _, name := range []string{"HC", "IT"} {
		if d := HeuristicDist(name, prepared); d.Success > 0.5 {
			t.Errorf("%s success %.3f on comparison sites, expected collapse", name, d.Success)
		}
	}
}

func TestMeasureProbs(t *testing.T) {
	prepared := preparedTest(t, smallCorpus())
	table := MeasureProbs(prepared, allHeuristics())
	if len(table) != 7 {
		t.Fatalf("table has %d heuristics", len(table))
	}
	for name, probs := range table {
		if len(probs) != MaxRank {
			t.Errorf("%s: %d probs", name, len(probs))
		}
		if probs[0] <= 0 || probs[0] > 1 {
			t.Errorf("%s: rank-1 prob %v", name, probs[0])
		}
	}
	// Measured probabilities should combine at least as well as a no-op:
	// the sweep must still rank RSIPB at or near the top.
	sweep := SweepCombinations(separator.All(), table, prepared)
	if len(sweep) != 26 {
		t.Fatalf("sweep has %d combinations, want 26", len(sweep))
	}
	best := sweep[0]
	for _, d := range sweep {
		if d.Success > best.Success {
			best = d
		}
	}
	rsipb := sweep[len(sweep)-1] // all-five is enumerated last
	if rsipb.Name != "RSIPB" {
		t.Fatalf("last combination = %s", rsipb.Name)
	}
	if rsipb.Success < best.Success-0.02 {
		t.Errorf("RSIPB %.3f more than 2pp below best combination %s %.3f",
			rsipb.Success, best.Name, best.Success)
	}
}

func TestCorrectRank(t *testing.T) {
	truth := sitegen.Truth{Separators: []string{"hr", "pre"}}
	if got := correctRank([]string{"a", "hr"}, truth); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	if got := correctRank([]string{"a", "b"}, truth); got != 0 {
		t.Errorf("rank = %d, want 0", got)
	}
	if got := correctRank(nil, truth); got != 0 {
		t.Errorf("rank = %d, want 0", got)
	}
}

func TestSubtreeSweep(t *testing.T) {
	c := smallCorpus()
	dists, err := SubtreeSweep(c.TestSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 4 {
		t.Fatalf("got %d subtree heuristics", len(dists))
	}
	byName := make(map[string]SubtreeDist, len(dists))
	for _, d := range dists {
		byName[d.Name] = d
	}
	// The compound algorithm must beat HF (whose nav-menu failure the
	// corpus reproduces) and be competitive overall.
	if byName["Compound"].Success <= byName["HF"].Success {
		t.Errorf("Compound %.3f not above HF %.3f",
			byName["Compound"].Success, byName["HF"].Success)
	}
	if byName["Compound"].Success < 0.6 {
		t.Errorf("Compound subtree success %.3f too low", byName["Compound"].Success)
	}
}

func TestMeasureTimingFullAndRules(t *testing.T) {
	c := &corpus.Corpus{PagesPerSite: 3}
	full, err := MeasureTiming("test", c.TestSet(), TimingOptions{Repeats: 1})
	if err != nil {
		t.Fatalf("MeasureTiming: %v", err)
	}
	if full.Pages != 45 {
		t.Errorf("pages = %d, want 45", full.Pages)
	}
	if full.Total <= 0 || full.Parse <= 0 || full.Separator <= 0 {
		t.Errorf("timing row not populated: %+v", full)
	}
	fast, err := MeasureTiming("test", c.TestSet(), TimingOptions{Repeats: 1, UseRules: true})
	if err != nil {
		t.Fatalf("MeasureTiming rules: %v", err)
	}
	if fast.Separator != 0 {
		t.Errorf("rule path measured separator discovery: %+v", fast)
	}
	// The paper's Table 16/17 claim: subtree+separator+construction is an
	// order of magnitude faster with cached rules.
	discoveryFull := full.Subtree + full.Separator + full.Construct
	discoveryFast := fast.Subtree + fast.Construct
	if discoveryFast >= discoveryFull {
		t.Errorf("cached rules not faster: %.3fms vs %.3fms", discoveryFast, discoveryFull)
	}
}

// The Table 16/17 reader must account for every span the pipeline
// records: one millisecond in each of core.Phases totals len(core.Phases).
func TestTimingRowReadsEveryPhase(t *testing.T) {
	reg := obs.NewRegistry()
	for _, phase := range core.Phases {
		reg.Histogram(obs.PhaseSeries(phase)).Observe(1e-3)
	}
	var row TimingRow
	row.add(0, reg, 1)
	if want := float64(len(core.Phases)); math.Abs(row.Total-want) > 1e-9 {
		t.Errorf("total = %vms over %d phases, want %vms: %+v", row.Total, len(core.Phases), want, row)
	}
}

func TestCombineRows(t *testing.T) {
	a := TimingRow{Label: "a", ReadFile: 2, Total: 10, Pages: 10}
	b := TimingRow{Label: "b", ReadFile: 4, Total: 20, Pages: 30}
	c := CombineRows("combined", a, b)
	if c.Pages != 40 {
		t.Errorf("pages = %d", c.Pages)
	}
	if c.ReadFile != (2*10+4*30)/40.0 {
		t.Errorf("read = %v", c.ReadFile)
	}
	if c.Total != (10*10+20*30)/40.0 {
		t.Errorf("total = %v", c.Total)
	}
}

func TestReportWriters(t *testing.T) {
	prepared := preparedTest(t, &corpus.Corpus{PagesPerSite: 2})
	dists := []Dist{HeuristicDist("SD", prepared), HeuristicDist("PP", prepared)}
	var sb strings.Builder
	WriteDistTable(&sb, "Table 10", dists)
	WritePRTable(&sb, "Table 14", dists)
	WriteComboTable(&sb, "Table 11", dists)
	WriteTimingTable(&sb, "Table 16", true, []TimingRow{{Label: "Test", Total: 1}})
	WriteTimingTable(&sb, "Table 17", false, []TimingRow{{Label: "Test", Total: 1}})
	WriteSubtreeTable(&sb, "Subtrees", []SubtreeDist{{Name: "HF"}})
	out := sb.String()
	for _, want := range []string{"Table 10", "SD", "PP", "Precision", "Combo", "Read", "milliseconds", "HF"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// The abstract's headline: high object-level precision with recall in the
// 93-98% band, end to end (own subtree discovery, no ground-truth hints).
func TestObjectLevelPrecisionRecall(t *testing.T) {
	c := &corpus.Corpus{PagesPerSite: 5}
	for _, set := range []struct {
		name  string
		sites []corpus.SitePages
	}{
		{"test", c.TestSet()},
		{"experimental", c.ExperimentalSet()},
	} {
		pr := MeasureObjectPR(set.name, set.sites, core.Options{})
		if pr.Failed > 0 {
			t.Errorf("%s: %d/%d pages failed to extract", set.name, pr.Failed, pr.Pages)
		}
		if pr.Precision < 0.90 {
			t.Errorf("%s: object precision %.3f below 0.90", set.name, pr.Precision)
		}
		if pr.Recall < 0.88 {
			t.Errorf("%s: object recall %.3f below 0.88 (paper band 0.93-0.98)", set.name, pr.Recall)
		}
	}
}

func TestScoreObjects(t *testing.T) {
	page := sitegen.Canoe()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	raw, err := extract.Construct(sub, "table", nil)
	if err != nil {
		t.Fatal(err)
	}
	objects := extract.Refine(raw, extract.RefineOptions{})
	p, r := scoreObjects(objects, page.Truth.ObjectTitles)
	if p != 1 || r != 1 {
		t.Errorf("canoe replica p=%v r=%v, want 1/1", p, r)
	}
	// Degenerate inputs.
	if p, r := scoreObjects(nil, page.Truth.ObjectTitles); p != 0 || r != 0 {
		t.Errorf("empty objects p=%v r=%v", p, r)
	}
	if p, r := scoreObjects(objects, nil); p != 0 || r != 0 {
		t.Errorf("empty titles p=%v r=%v", p, r)
	}
	// A merged object containing two titles is not a true positive.
	merged := extract.Object{Nodes: sub.Children}
	p, _ = scoreObjects([]extract.Object{merged}, page.Truth.ObjectTitles)
	if p != 0 {
		t.Errorf("merged object counted as correct: p=%v", p)
	}
}

func TestWriteSiteBreakdown(t *testing.T) {
	prepared := preparedTest(t, &corpus.Corpus{PagesPerSite: 2})
	combined := map[string]float64{prepared[0].Site: 1}
	var sb strings.Builder
	WriteSiteBreakdown(&sb, "Per-site", prepared[:2], []string{"SD", "PP"}, combined)
	out := sb.String()
	if !strings.Contains(out, prepared[0].Site) || !strings.Contains(out, "RSIPB") {
		t.Errorf("breakdown output:\n%s", out)
	}
}

// Confidence must be informative: extractions in the top confidence bucket
// are correct more often than those in the bottom one.
func TestConfidenceCalibration(t *testing.T) {
	c := &corpus.Corpus{PagesPerSite: 6}
	sites := append(c.TestSet(), c.ComparisonSet()...)
	buckets := ConfidenceCalibration(sites, nil)
	if len(buckets) != 4 {
		t.Fatalf("got %d buckets", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Pages
	}
	if total == 0 {
		t.Fatal("no pages bucketed")
	}
	top := buckets[len(buckets)-1]
	if top.Pages == 0 {
		t.Fatal("no high-confidence extractions at all")
	}
	// Find the lowest populated bucket below the top.
	for _, b := range buckets[:len(buckets)-1] {
		if b.Pages == 0 {
			continue
		}
		if top.Accuracy < b.Accuracy {
			t.Errorf("top bucket accuracy %.3f below bucket [%.2f,%.2f) accuracy %.3f",
				top.Accuracy, b.Lo, b.Hi, b.Accuracy)
		}
		break
	}
	if top.Accuracy < 0.9 {
		t.Errorf("top-bucket accuracy = %.3f, want >= 0.9", top.Accuracy)
	}
}
