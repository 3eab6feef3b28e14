package eval

import (
	"fmt"
	"io"
	"sort"
)

// This file renders experiment results as the paper's tables, for
// cmd/ominibench and EXPERIMENTS.md.

// WriteDistTable prints rank-probability rows in the format of Tables 10,
// 13 and 20.
func WriteDistTable(w io.Writer, title string, dists []Dist) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %7s %6s %6s %6s %6s\n", "Heuristic", "Rank 1", "2", "3", "4", "5")
	for _, d := range dists {
		fmt.Fprintf(w, "%-8s %7.2f %6.2f %6.2f %6.2f %6.2f\n",
			d.Name, d.Rank[0], d.Rank[1], d.Rank[2], d.Rank[3], d.Rank[4])
	}
	fmt.Fprintln(w)
}

// WritePRTable prints success/precision/recall rows in the format of
// Tables 14 and 15.
func WritePRTable(w io.Writer, title string, dists []Dist) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %8s %10s %7s\n", "Heuristic", "Success", "Precision", "Recall")
	for _, d := range dists {
		fmt.Fprintf(w, "%-8s %8.2f %10.2f %7.2f\n", d.Name, d.Success, d.Precision, d.Recall)
	}
	fmt.Fprintln(w)
}

// WriteComboTable prints the 26-combination sweep in the three-column
// format of Table 11, sorted ascending by success as the paper lists it.
func WriteComboTable(w io.Writer, title string, dists []Dist) {
	fmt.Fprintf(w, "%s\n", title)
	sorted := make([]Dist, len(dists))
	copy(sorted, dists)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Success < sorted[j].Success })
	fmt.Fprintf(w, "%-7s %7s    %-7s %7s    %-7s %7s\n",
		"Combo", "Success", "Combo", "Success", "Combo", "Success")
	for i := 0; i < len(sorted); i += 3 {
		for j := i; j < i+3 && j < len(sorted); j++ {
			fmt.Fprintf(w, "%-7s %7.2f    ", sorted[j].Name, sorted[j].Success)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WriteTimingTable prints timing rows in the format of Tables 16/17.
func WriteTimingTable(w io.Writer, title string, withDiscovery bool, rows []TimingRow) {
	fmt.Fprintf(w, "%s\n", title)
	if withDiscovery {
		fmt.Fprintf(w, "%-14s %8s %8s %8s %9s %9s %8s\n",
			"Web Site", "Read", "Parse", "Subtree", "Separator", "Construct", "Total")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %8.2f %8.2f %8.2f %9.2f %9.2f %8.2f\n",
				r.Label, r.ReadFile, r.Parse, r.Subtree, r.Separator, r.Construct, r.Total)
		}
	} else {
		fmt.Fprintf(w, "%-14s %8s %8s %8s %9s %8s\n",
			"Web Site", "Read", "Parse", "Subtree", "Construct", "Total")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %8.2f %8.2f %8.2f %9.2f %8.2f\n",
				r.Label, r.ReadFile, r.Parse, r.Subtree, r.Construct, r.Total)
		}
	}
	fmt.Fprintf(w, "(milliseconds per page)\n\n")
}

// WriteSubtreeTable prints subtree-heuristic rows.
func WriteSubtreeTable(w io.Writer, title string, dists []SubtreeDist) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-9s %7s %6s %6s %6s %6s\n", "Heuristic", "Rank 1", "2", "3", "4", "5")
	for _, d := range dists {
		fmt.Fprintf(w, "%-9s %7.2f %6.2f %6.2f %6.2f %6.2f\n",
			d.Name, d.Rank[0], d.Rank[1], d.Rank[2], d.Rank[3], d.Rank[4])
	}
	fmt.Fprintln(w)
}

// WriteSiteBreakdown prints per-site success for each heuristic plus the
// combined algorithm — the diagnostic view behind the paper's per-site
// averaging methodology ("for each web site we calculate the percentage of
// the downloaded pages in which the highest ranked tag is the correct
// separator").
func WriteSiteBreakdown(w io.Writer, title string, sites []PreparedSite, names []string, combined map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-30s", "Site")
	for _, name := range names {
		fmt.Fprintf(w, " %6s", name)
	}
	fmt.Fprintf(w, " %6s\n", "RSIPB")
	for _, site := range sites {
		one := []PreparedSite{site}
		fmt.Fprintf(w, "%-30s", site.Site)
		for _, name := range names {
			fmt.Fprintf(w, " %6.2f", HeuristicDist(name, one).Success)
		}
		fmt.Fprintf(w, " %6.2f\n", combined[site.Site])
	}
	fmt.Fprintln(w)
}
