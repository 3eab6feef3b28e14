package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// registryNameMethods are the obs.Registry methods whose first argument
// is a series name.
var registryNameMethods = map[string]bool{
	"Counter":           true,
	"Add":               true,
	"Get":               true,
	"Gauge":             true,
	"SetGauge":          true,
	"RegisterGaugeFunc": true,
	"Histogram":         true,
	"Observe":           true,
	"ObserveExemplar":   true,
}

// seriesGrammar is the registry naming grammar: dotted lower-case with
// an optional single Prometheus-style label.
var seriesGrammar = regexp.MustCompile(`^[a-z0-9][a-z0-9_.]*(\{[a-z0-9_]+="[^"{}]*"\})?$`)

// preregPackages are the packages whose emitted series must appear in
// the boot pre-registration set, so /metricsz exposes every series from
// process start instead of only after first use.
var preregPackages = map[string]bool{
	"serve":    true,
	"core":     true,
	"cluster":  true,
	"farm":     true,
	"ruledist": true,
}

// phaseSeriesName mirrors obs.PhaseSeries for pre-registration
// bookkeeping: any constant harvested from registerMetrics also
// pre-registers its per-phase latency series.
func phaseSeriesName(phase string) string {
	return fmt.Sprintf("omini_phase_seconds{phase=%q}", phase)
}

// seriesUse is one registry call site with a resolved series name.
type seriesUse struct {
	value string
	pos   token.Position
	pkg   string
}

// obsnames enforces the observability naming contract: series names at
// registry call sites are compile-time constants in the registry
// grammar (or go through the sanctioned obs.PhaseSeries helper /
// constant-yielding local functions), no two named constants spell the
// same series, and everything serve and core emit is pre-registered in
// registerMetrics. The analyzer is per-run stateful; the cross-package
// checks run in Finish.
type obsnames struct {
	sawRegisterMetrics bool
	prereg             map[string]bool
	emitted            []seriesUse
	// constUses maps a series value to the named constants spelling it,
	// to catch two constants for one series.
	constUses map[string]map[types.Object]token.Position
}

func newObsnames() *Analyzer {
	o := &obsnames{
		prereg:    make(map[string]bool),
		constUses: make(map[string]map[types.Object]token.Position),
	}
	return &Analyzer{
		Name:   "obsnames",
		Doc:    "registry series names are constant, grammatical, unique, and pre-registered at boot",
		Run:    o.run,
		Finish: o.finish,
	}
}

func (o *obsnames) run(pass *Pass) {
	pkg := lastSegment(pass.Path)
	// The registry implementation plumbs name parameters through its own
	// methods and owns the one sanctioned dynamic family (PhaseSeries).
	if pkg == "obs" {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// registerMetrics is the sanctioned registration zone: it loops
			// over the constant name sets, so its call sites are harvested
			// into the pre-registration set instead of checked.
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "registerMetrics" && fd.Body != nil {
				o.sawRegisterMetrics = true
				o.harvestPrereg(pass, fd.Body)
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				o.checkRegistryCall(pass, pkg, call)
				return true
			})
		}
	}
}

// harvestPrereg collects the pre-registration set from registerMetrics:
// every constant string in its body (including constants referenced
// from other packages) and in the initializers of package-level vars it
// ranges over (the serving phase list), each also mapped through the
// per-phase latency family.
func (o *obsnames) harvestPrereg(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if v, ok := constStringOf(pass.Info, expr); ok {
			o.addPrereg(v)
		}
		if ident, ok := expr.(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[ident].(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				o.harvestVarInit(pass, v)
			}
		}
		return true
	})
}

// harvestVarInit harvests constant strings from the package-level
// initializer of v.
func (o *obsnames) harvestVarInit(pass *Pass, v *types.Var) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if pass.Info.Defs[name] != v {
						continue
					}
					for _, val := range vs.Values {
						ast.Inspect(val, func(n ast.Node) bool {
							if e, ok := n.(ast.Expr); ok {
								if s, ok := constStringOf(pass.Info, e); ok {
									o.addPrereg(s)
								}
							}
							return true
						})
					}
				}
			}
		}
	}
}

func (o *obsnames) addPrereg(v string) {
	if seriesGrammar.MatchString(v) {
		o.prereg[v] = true
		o.prereg[phaseSeriesName(v)] = true
	}
}

// checkRegistryCall validates the name argument of an obs.Registry
// method call.
func (o *obsnames) checkRegistryCall(pass *Pass, pkg string, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !registryNameMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || !namedType(tv.Type, "obs", "Registry") {
		return
	}
	arg := ast.Unparen(call.Args[0])

	if v, ok := constStringOf(pass.Info, arg); ok {
		if !seriesGrammar.MatchString(v) {
			pass.Reportf(arg.Pos(), "series name %q does not match the registry grammar [a-z0-9_.]+ with optional {label=\"...\"}", v)
			return
		}
		o.recordUse(pass, pkg, arg, v)
		return
	}
	if inner, ok := arg.(*ast.CallExpr); ok {
		// obs.PhaseSeries(<const phase>) is the sanctioned labeled family.
		if isPkgFunc(pass.Info, inner, "obs", "PhaseSeries") && len(inner.Args) == 1 {
			if phase, ok := constStringOf(pass.Info, inner.Args[0]); ok {
				o.recordUse(pass, pkg, inner.Args[0], phaseSeriesName(phase))
				return
			}
			pass.Reportf(arg.Pos(), "obs.PhaseSeries argument must be a compile-time constant phase name")
			return
		}
		// A local helper whose every return is a grammatical constant
		// (request path -> series switches) is equivalent to a constant.
		if values, ok := o.constantYield(pass, inner); ok {
			for _, v := range values {
				o.emitted = append(o.emitted, seriesUse{value: v, pos: pass.Fset.Position(arg.Pos()), pkg: pkg})
			}
			return
		}
	}
	pass.Reportf(arg.Pos(), "series name passed to Registry.%s must be a compile-time constant (or obs.PhaseSeries of one)", sel.Sel.Name)
}

// recordUse notes one resolved series emission and, when the argument
// is a named constant, tracks it for duplicate detection.
func (o *obsnames) recordUse(pass *Pass, pkg string, arg ast.Expr, value string) {
	o.emitted = append(o.emitted, seriesUse{value: value, pos: pass.Fset.Position(arg.Pos()), pkg: pkg})
	var obj types.Object
	switch e := arg.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[e.Sel]
	}
	if c, ok := obj.(*types.Const); ok {
		uses := o.constUses[value]
		if uses == nil {
			uses = make(map[types.Object]token.Position)
			o.constUses[value] = uses
		}
		if _, seen := uses[c]; !seen {
			uses[c] = pass.Fset.Position(c.Pos())
		}
	}
}

// constantYield resolves a call to a same-package function whose every
// return statement yields a grammatical constant string, returning the
// set of possible values.
func (o *obsnames) constantYield(pass *Pass, call *ast.CallExpr) ([]string, bool) {
	obj := calleeObject(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil, false
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pass.Info.Defs[fd.Name] != fn || fd.Body == nil {
				continue
			}
			var values []string
			allConst := true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || !allConst {
					return allConst
				}
				if len(ret.Results) != 1 {
					allConst = false
					return false
				}
				v, ok := constStringOf(pass.Info, ret.Results[0])
				if !ok || !seriesGrammar.MatchString(v) {
					allConst = false
					return false
				}
				values = append(values, v)
				return true
			})
			if allConst && len(values) > 0 {
				return values, true
			}
			return nil, false
		}
	}
	return nil, false
}

func (o *obsnames) finish(report func(token.Position, string)) {
	for value, uses := range o.constUses {
		if len(uses) < 2 {
			continue
		}
		positions := make([]token.Position, 0, len(uses))
		for _, pos := range uses {
			positions = append(positions, pos)
		}
		sort.Slice(positions, func(i, j int) bool {
			if positions[i].Filename != positions[j].Filename {
				return positions[i].Filename < positions[j].Filename
			}
			return positions[i].Line < positions[j].Line
		})
		for _, pos := range positions[1:] {
			report(pos, fmt.Sprintf("duplicate constant for series %q; one series, one constant", value))
		}
	}
	// The pre-registration check needs a boot set to compare against;
	// fixture packages without a registerMetrics skip it.
	if !o.sawRegisterMetrics {
		return
	}
	reported := make(map[string]bool)
	for _, use := range o.emitted {
		if !preregPackages[use.pkg] || o.prereg[use.value] || reported[use.value] {
			continue
		}
		reported[use.value] = true
		report(use.pos, fmt.Sprintf("series %q is emitted but missing from the boot pre-registration set (registerMetrics)", use.value))
	}
}
