package lint

// spanend keeps tracing complete: every span returned by
// obs.StartSpan reaches End() on all control-flow paths — an unended
// span never lands in its trace recorder, so the request's trace
// silently loses a phase. Trace propagation needs no check: peer
// clients stamp the X-Omini-Trace header in obs.Transport, so no
// outbound request can skip it.

import (
	"go/ast"
	"go/types"
)

func newSpanend() *Analyzer {
	return &Analyzer{
		Name: "spanend",
		Doc:  "obs.StartSpan spans are ended on all paths",
		Run:  runSpanend,
	}
}

func runSpanend(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanEnds(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpanEnds(pass, lit.Body)
				}
				return true
			})
		}
	}
}

// checkSpanEnds verifies every `ctx, sp := obs.StartSpan(…)` in one
// function body ends sp on all paths to exit.
func checkSpanEnds(pass *Pass, body *ast.BlockStmt) {
	cfg := pass.FuncCFG(body)
	for _, b := range cfg.Blocks {
		for i, n := range b.Stmts {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !isPkgFunc(pass.Info, call, "obs", "StartSpan") {
				continue
			}
			id, ok := as.Lhs[1].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(as.Pos(), "span from obs.StartSpan is discarded and never ended")
				continue
			}
			sp := pass.Info.Defs[id]
			if sp == nil {
				sp = pass.Info.Uses[id]
			}
			if sp == nil {
				continue
			}
			escaped := cfg.escapes(b, i+1, func(m ast.Node) bool {
				return endsOrHandsOffSpan(pass, m, sp)
			}, nil)
			if escaped {
				pass.Reportf(as.Pos(), "span %s from obs.StartSpan does not reach End on every path", id.Name)
			}
		}
	}
}

// endsOrHandsOffSpan reports whether node n discharges the End
// obligation for span variable v: sp.End() directly, deferred (bare
// or inside a deferred closure), captured by a closure, passed to a
// callee, returned, or stored.
func endsOrHandsOffSpan(pass *Pass, n ast.Node, v types.Object) bool {
	switch m := n.(type) {
	case *RangeHead:
		n = m.Range.X
	case *SelectHead:
		return false
	case *ast.DeferStmt:
		if endsSpanCall(pass.Info, m.Call, v) {
			return true
		}
		if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
			return spanEndedIn(pass.Info, lit.Body, v)
		}
		return false
	case *ast.ReturnStmt:
		// Returning the span itself hands the End duty to the caller; a
		// call inside the results falls through to the generic scan.
		for _, r := range m.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && pass.Info.Uses[id] == v {
				return true
			}
		}
	}
	done := false
	inspectShallow(n, func(m ast.Node) bool {
		if done {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			if spanEndedIn(pass.Info, m.Body, v) || usesObjectAsValue(pass.Info, m.Body, v) {
				done = true
			}
			return false
		case *ast.CallExpr:
			if endsSpanCall(pass.Info, m, v) {
				done = true
				return false
			}
			for _, arg := range m.Args {
				if usesObjectAsValue(pass.Info, arg, v) {
					done = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range m.Rhs {
				if usesObjectAsValue(pass.Info, rhs, v) {
					done = true
				}
			}
		}
		return true
	})
	return done
}

// endsSpanCall reports whether call is <v>.End().
func endsSpanCall(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == v
}

// spanEndedIn reports whether the subtree contains <v>.End().
func spanEndedIn(info *types.Info, n ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && endsSpanCall(info, call, v) {
			found = true
		}
		return true
	})
	return found
}
