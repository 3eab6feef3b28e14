package eval

import (
	"context"
	"fmt"
	"time"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/fetch"
	"omini/internal/obs"
	"omini/internal/rules"
)

// TimingRow is one row of Table 16 or 17: mean per-phase extraction cost in
// milliseconds over a page collection. The paper's "Combine Heuristics"
// time is inside Separator: combine.Combine runs the heuristics and merges
// their rankings under one span.
type TimingRow struct {
	Label     string
	ReadFile  float64
	Parse     float64
	Subtree   float64
	Separator float64
	Construct float64
	Total     float64
	Pages     int
}

// add accumulates one page's timing: read is the mean fetch time and reg
// holds the phase spans (core.Phases) of repeats extractions of the page.
// The first three phases (tokenize, tidy, build) are the paper's Parse.
func (r *TimingRow) add(read time.Duration, reg *obs.Registry, repeats int) {
	var ms [6]float64
	for i, phase := range core.Phases {
		ms[i] = reg.Histogram(obs.PhaseSeries(phase)).Sum() * 1e3 / float64(repeats)
	}
	readMS := float64(read) / float64(time.Millisecond)
	parse, subtree, separator, construct := ms[0]+ms[1]+ms[2], ms[3], ms[4], ms[5]
	r.ReadFile += readMS
	r.Parse += parse
	r.Subtree += subtree
	r.Separator += separator
	r.Construct += construct
	r.Total += readMS + parse + subtree + separator + construct
	r.Pages++
}

// finish converts sums to means.
func (r *TimingRow) finish() {
	if r.Pages == 0 {
		return
	}
	n := float64(r.Pages)
	r.ReadFile /= n
	r.Parse /= n
	r.Subtree /= n
	r.Separator /= n
	r.Construct /= n
	r.Total /= n
}

// TimingOptions configure a timing measurement.
type TimingOptions struct {
	// Repeats runs each page this many times and averages, as the paper
	// did ("for each web page the algorithms were run ten times").
	// Default 1.
	Repeats int
	// UseRules measures the cached-rule fast path of Table 17: a rule is
	// learned from each site's first page and replayed on the rest.
	UseRules bool
}

// MeasureTiming serves the collection over a loopback HTTP server, fetches
// and extracts every page, and returns the mean per-phase cost — the
// methodology behind Tables 16 and 17. Phase costs are the extraction's
// own spans (core.Phases), read back from a registry private to the page.
func MeasureTiming(label string, sites []corpus.SitePages, opts TimingOptions) (TimingRow, error) {
	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	srv := fetch.NewCorpusServer()
	for _, sp := range sites {
		srv.Add(sp.Pages...)
	}
	if err := srv.Start(); err != nil {
		return TimingRow{}, err
	}
	defer srv.Close()

	var (
		f         fetch.Fetcher
		extractor = core.New(core.Options{})
		row       = TimingRow{Label: label}
	)
	for _, sp := range sites {
		var rule rules.Rule
		if opts.UseRules && len(sp.Pages) > 0 {
			body, err := f.Fetch(context.Background(), srv.URL(sp.Pages[0]))
			if err != nil {
				return row, fmt.Errorf("eval: fetch rule page: %w", err)
			}
			res, err := extractor.Extract(body)
			if err != nil {
				return row, fmt.Errorf("eval: learn rule for %s: %w", sp.Spec.Name, err)
			}
			rule = res.Rule(sp.Spec.Name)
		}
		for _, page := range sp.Pages {
			var readSum time.Duration
			reg := obs.NewRegistry()
			ctx := obs.WithRegistry(context.Background(), reg)
			for rep := 0; rep < repeats; rep++ {
				start := time.Now()
				body, err := f.Fetch(context.Background(), srv.URL(page))
				readSum += time.Since(start)
				if err != nil {
					return row, fmt.Errorf("eval: fetch %s: %w", page.Name, err)
				}
				if opts.UseRules {
					_, err = extractor.ExtractWithRuleContext(ctx, body, rule)
				} else {
					_, err = extractor.ExtractContext(ctx, body)
				}
				if err != nil {
					return row, fmt.Errorf("eval: extract %s: %w", page.Name, err)
				}
			}
			row.add(readSum/time.Duration(repeats), reg, repeats)
		}
	}
	row.finish()
	return row, nil
}

// CombineRows merges timing rows into their weighted combined row, matching
// the "Combined" line of Tables 16/17.
func CombineRows(label string, rows ...TimingRow) TimingRow {
	var out TimingRow
	out.Label = label
	for _, r := range rows {
		n := float64(r.Pages)
		out.ReadFile += r.ReadFile * n
		out.Parse += r.Parse * n
		out.Subtree += r.Subtree * n
		out.Separator += r.Separator * n
		out.Construct += r.Construct * n
		out.Total += r.Total * n
		out.Pages += r.Pages
	}
	out.finish()
	return out
}
