// Package lint implements ominilint, the project's static-analysis
// pass: a stdlib-only driver (go/parser, go/ast, go/types, go/importer
// — no x/tools) that loads every package in the module, type-checks
// it, and runs a suite of project-specific analyzers enforcing the
// contracts the pipeline's layers rely on but the compiler cannot see:
//
//   - governloop: governed phase loops must charge the govern.Guard,
//     and no new exported entry point in a governed package may loop
//     unboundedly without one.
//   - errwrap: errors are wrapped with %w and matched with errors.Is,
//     so sentinel chains survive every layer.
//   - ctxfirst: context.Context is the first parameter and never
//     stored in a struct outside the sanctioned govern.Guard.
//   - puredet: the pure phase packages stay deterministic — no clocks,
//     no randomness, no I/O — which is what makes the golden and
//     differential tests meaningful.
//   - lockhold: no sync.Mutex or RWMutex is held across a blocking
//     operation (HTTP round-trips, channel sends/receives, waits).
//   - peerhttp: HTTP client sends and request or response Body reads
//     happen only in internal/resilience, whose one bounded reader
//     limits, drains and closes every remote body.
//   - goleak: goroutines in the long-lived packages are tied to a
//     lifecycle (WaitGroup, context, or captured stop channel).
//
// lockhold is control-flow aware: the driver builds a per-function
// basic-block CFG (cfg.go) and run-wide call-graph facts
// (callgraph.go) that classify callees as blocking or lock-taking,
// both exposed through Pass. Spans need no analyzer: outside
// internal/obs a span exists only inside obs.Leaf and obs.Run, which
// end it.
//
// The paper's system (Buttler, Liu, Pu, ICDCS 2001) is motivated by
// fully automated extraction at production scale; production Go stacks
// hold invariants like these with custom analyzers in CI (the
// go/analysis pattern), which this package reproduces without
// third-party dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Message states the violated invariant.
	Message string
}

// String renders the finding in the canonical "file:line: analyzer:
// message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	// Fset maps positions for every file in the run.
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's facts for the package's syntax.
	Info *types.Info
	// Files are the package's parsed files (tests excluded).
	Files []*ast.File
	// Nested is set for a package of a module nested inside the loaded
	// one (see Package.Nested).
	Nested bool
	// Facts are the run-wide call-graph classifications (blocking and
	// lock-taking callees), shared by every pass of the run.
	Facts *CallFacts

	report func(Finding)
	cfgs   map[*ast.BlockStmt]*CFG
}

// FuncCFG returns the control-flow graph of a function body, built on
// first use and cached for the package across analyzers.
func (p *Pass) FuncCFG(body *ast.BlockStmt) *CFG {
	if c, ok := p.cfgs[body]; ok {
		return c
	}
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*CFG)
	}
	c := BuildCFG(body)
	p.cfgs[body] = c
	return c
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one checked invariant. NewAnalyzers returns fresh
// instances per run.
type Analyzer struct {
	// Name labels findings ("governloop", "errwrap", ...).
	Name string
	// Doc is the one-line invariant description.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// NewAnalyzers returns a fresh instance of every ominilint analyzer.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		newGovernloop(),
		newErrwrap(),
		newCtxfirst(),
		newPuredet(),
		newLockhold(),
		newPeerhttp(),
		newGoleak(),
	}
}

// AnalyzerTiming records one analyzer's cost over a whole run, for the
// CLI's -json timing output.
type AnalyzerTiming struct {
	// Name is the analyzer's name.
	Name string
	// Duration is the wall time the analyzer spent across all packages.
	Duration time.Duration
	// Findings counts the findings the analyzer produced.
	Findings int
}

// RunAnalyzers runs every analyzer over every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunAnalyzersTimed(pkgs, analyzers)
	return findings
}

// RunAnalyzersTimed is RunAnalyzers plus per-analyzer wall-time and
// finding counts. Call-graph facts and per-function CFGs are built
// once and shared: each package keeps one Pass whose report hook is
// repointed per analyzer.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	var findings []Finding
	facts := BuildCallFacts(pkgs)
	passes := make([]*Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = &Pass{
			Fset:   pkg.Fset,
			Path:   pkg.Path,
			Pkg:    pkg.Types,
			Info:   pkg.Info,
			Files:  pkg.Files,
			Nested: pkg.Nested,
			Facts:  facts,
		}
	}
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		count := 0
		name := a.Name
		for _, pass := range passes {
			pass.report = func(f Finding) {
				f.Analyzer = name
				findings = append(findings, f)
				count++
			}
			a.Run(pass)
		}
		timings = append(timings, AnalyzerTiming{Name: name, Duration: time.Since(start), Findings: count})
	}
	sortFindings(findings)
	return findings, timings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run loads the packages matched by patterns (resolved relative to
// dir, "./..." walks recursively) and runs the analyzers over them.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(pkgs, analyzers), nil
}
