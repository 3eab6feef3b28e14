// Command ominilint runs the project's static-analysis suite over the
// module: governloop, errwrap, ctxfirst, puredet, lockhold, peerhttp,
// goleak, and spanend (see internal/lint and DESIGN.md §11, §16).
//
// Usage:
//
//	ominilint [-json] [-only=analyzer,...] [-baseline=file] [packages]
//
// Packages default to ./... resolved against the working directory.
// Findings print as "file:line: analyzer: message" (or, with -json, as
// an object {"findings": [...], "analyzers": [{name, millis,
// findings}]} that includes per-analyzer wall time).
//
// -only restricts the run to the named analyzers; the special name
// "baseline" runs nothing but the stale-baseline check, failing if the
// -baseline file names functions that no longer exist.
//
// -baseline points at a reviewed exception file (see lint.baseline at
// the repo root): findings inside baselined functions are suppressed,
// and stale entries are reported as findings of the "baseline"
// analyzer.
//
// Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"omini/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and per-analyzer timings as JSON")
	only := flag.String("only", "", "comma-separated analyzers to run (special name \"baseline\": stale-baseline check only)")
	baselinePath := flag.String("baseline", "", "reviewed baseline file; matching findings are suppressed, stale entries reported")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ominilint [-json] [-only=analyzer,...] [-baseline=file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	findings, timings, err := run(*only, *baselinePath, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ominilint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, findings, timings); err != nil {
			fmt.Fprintln(os.Stderr, "ominilint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func run(only, baselinePath string, patterns []string) ([]lint.Finding, []lint.AnalyzerTiming, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	analyzers, staleOnly, err := selectAnalyzers(only)
	if err != nil {
		return nil, nil, err
	}

	var baseline *lint.Baseline
	if baselinePath != "" {
		baseline, err = lint.LoadBaseline(baselinePath)
		if err != nil {
			return nil, nil, err
		}
	}
	if staleOnly && baseline == nil {
		return nil, nil, fmt.Errorf("-only=baseline requires -baseline=<file>")
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := loader.LoadPatterns(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	if staleOnly {
		return lint.StaleEntries(baseline, pkgs), nil, nil
	}
	findings, timings := lint.RunAnalyzersTimed(pkgs, analyzers)
	findings = lint.ApplyBaseline(baseline, pkgs, findings)
	return findings, timings, nil
}

// selectAnalyzers resolves -only to a concrete analyzer list. The
// special name "baseline" (alone) selects the stale-check-only mode.
func selectAnalyzers(only string) ([]*lint.Analyzer, bool, error) {
	all := lint.NewAnalyzers()
	if only == "" {
		return all, false, nil
	}
	if only == "baseline" {
		return nil, true, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, false, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, false, fmt.Errorf("-only selected no analyzers")
	}
	return picked, false, nil
}

func writeJSON(w *os.File, findings []lint.Finding, timings []lint.AnalyzerTiming) error {
	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	type timing struct {
		Name     string  `json:"name"`
		Millis   float64 `json:"millis"`
		Findings int     `json:"findings"`
	}
	out := struct {
		Findings  []finding `json:"findings"`
		Analyzers []timing  `json:"analyzers"`
	}{Findings: []finding{}, Analyzers: []timing{}}
	for _, f := range findings {
		out.Findings = append(out.Findings, finding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	for _, t := range timings {
		out.Analyzers = append(out.Analyzers, timing{
			Name:     t.Name,
			Millis:   float64(t.Duration.Microseconds()) / 1000,
			Findings: t.Findings,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
