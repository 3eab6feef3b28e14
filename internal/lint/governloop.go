package lint

import (
	"go/ast"
	"go/types"
)

// governedPackages are the packages whose hot loops run under the
// resource governor (DESIGN.md §10): the seven phase packages plus the
// cluster routing and rule-replication layers, whose ring walks, probe
// sweeps and sync rounds run on or beside the serving path. governloop
// scopes itself by final path segment so the rule applies equally to
// the real module and to fixture trees.
var governedPackages = map[string]bool{
	"htmlparse": true,
	"tidy":      true,
	"tagtree":   true,
	"subtree":   true,
	"separator": true,
	"combine":   true,
	"extract":   true,
	"cluster":   true,
	"farm":      true,
	"ruledist":  true,
}

// guardChargeMethods are the govern.Guard methods that charge a budget
// or poll the page context. A loop containing any of them is
// cancellable.
var guardChargeMethods = map[string]bool{
	"Input":   true,
	"Tokens":  true,
	"Nodes":   true,
	"Depth":   true,
	"Objects": true,
	"Poll":    true,
	"Check":   true,
}

// newGovernloop builds the governloop analyzer: in the governed phase
// packages, every function that runs under a *govern.Guard must charge
// it inside each for loop and on each recursive path, and no new
// exported entry point may loop without a guard (existing ungoverned
// API is grandfathered in governloopBaseline).
func newGovernloop() *Analyzer {
	return &Analyzer{
		Name: "governloop",
		Doc:  "governed phase loops must charge the govern.Guard; no new ungoverned exported entry points",
		Run:  runGovernloop,
	}
}

func runGovernloop(pass *Pass) {
	if !governedPackages[lastSegment(pass.Path)] {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			gc := &governChecker{pass: pass}
			gc.collectClosures(fd.Body)
			switch {
			case gc.takesGuard(fd):
				gc.checkGoverned(fd)
			case fd.Name.IsExported():
				gc.checkEntryPoint(fd)
			}
		}
	}
}

// governChecker checks one function declaration.
type governChecker struct {
	pass *Pass
	// closures maps local identifiers to the func literals assigned to
	// them, so a loop that delegates its charging to a local walk
	// closure is recognized.
	closures map[types.Object]*ast.FuncLit
	// memo caches per-closure guard-touch results; the in-progress
	// marker breaks mutual-recursion cycles (an unresolved cycle does
	// not count as a charge).
	memo map[*ast.FuncLit]bool
}

// takesGuard reports whether the function has a *govern.Guard
// parameter or a receiver that carries one.
func (gc *governChecker) takesGuard(fd *ast.FuncDecl) bool {
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if tv, ok := gc.pass.Info.Types[field.Type]; ok && isGuardPtr(tv.Type) {
				return true
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tv, ok := gc.pass.Info.Types[fd.Recv.List[0].Type]; ok && carriesGuard(tv.Type) {
			return true
		}
	}
	return false
}

// collectClosures records func literals bound to local identifiers
// (walk := func(...){...}; var walk func(...); walk = func(...){...}).
func (gc *governChecker) collectClosures(body *ast.BlockStmt) {
	gc.closures = make(map[types.Object]*ast.FuncLit)
	gc.memo = make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			lit, ok := assign.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			ident, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := gc.pass.Info.Defs[ident]
			if obj == nil {
				obj = gc.pass.Info.Uses[ident]
			}
			if obj != nil {
				gc.closures[obj] = lit
			}
		}
		return true
	})
}

// touches reports whether the subtree charges the guard: a direct
// charge method call on a *govern.Guard, a call forwarding a guard (by
// parameter or through a guard-carrying receiver), or a call to a
// local closure that does either.
func (gc *governChecker) touches(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if gc.callTouches(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (gc *governChecker) callTouches(call *ast.CallExpr) bool {
	info := gc.pass.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			// g.Poll() and friends.
			if guardChargeMethods[sel.Sel.Name] && isGuardPtr(tv.Type) {
				return true
			}
			// n.feed(tok) where n's struct carries the guard.
			if info.Selections[sel] != nil && carriesGuard(tv.Type) {
				return true
			}
		}
	}
	// f(..., g) / f(..., nil) where f's signature accepts a guard.
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok && signatureTakesGuard(sig) {
			return true
		}
	}
	// walk(c, depth+1) where walk is a local closure that charges.
	if ident, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.Uses[ident]; obj != nil {
			if lit := gc.closures[obj]; lit != nil {
				return gc.closureTouches(lit)
			}
		}
	}
	return false
}

func (gc *governChecker) closureTouches(lit *ast.FuncLit) bool {
	if v, ok := gc.memo[lit]; ok {
		return v
	}
	gc.memo[lit] = false // in progress: cycles don't count as charges
	v := gc.touches(lit.Body)
	gc.memo[lit] = v
	return v
}

// checkGoverned enforces the charging contract inside a governed
// function: every for loop and every recursive path must charge.
func (gc *governChecker) checkGoverned(fd *ast.FuncDecl) {
	self := gc.pass.Info.Defs[fd.Name]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if !gc.touches(n.Body) {
				gc.pass.Reportf(n.For, "for loop in governed function %s does not charge the *govern.Guard", fd.Name.Name)
			}
		case *ast.RangeStmt:
			if !gc.touches(n.Body) {
				gc.pass.Reportf(n.For, "range loop in governed function %s does not charge the *govern.Guard", fd.Name.Name)
			}
		case *ast.CallExpr:
			if self != nil && calleeObject(gc.pass.Info, n) == self && !gc.touches(fd.Body) {
				gc.pass.Reportf(n.Pos(), "recursive call in governed function %s with no *govern.Guard charge on the path", fd.Name.Name)
			}
		}
		return true
	})
	// A local recursive closure (the usual tree-walk shape) must charge
	// inside its own body: its loop-equivalent path is the self call.
	for obj, lit := range gc.closures {
		recursive := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && calleeObject(gc.pass.Info, call) == obj {
				recursive = true
			}
			return !recursive
		})
		if recursive && !gc.closureTouches(lit) {
			gc.pass.Reportf(lit.Pos(), "recursive closure %s in governed function %s does not charge the *govern.Guard", obj.Name(), fd.Name.Name)
		}
	}
}

// checkEntryPoint enforces the no-new-ungoverned-API rule: an exported
// function in a governed package that loops must either run under a
// guard, delegate to a function that takes one, or be part of the
// grandfathered pre-governor API recorded in governloopBaseline.
func (gc *governChecker) checkEntryPoint(fd *ast.FuncDecl) {
	hasLoop := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		}
		return !hasLoop
	})
	if !hasLoop || gc.touches(fd.Body) {
		return
	}
	key := lastSegment(gc.pass.Path) + "." + funcKey(fd)
	if governloopBaseline[key] {
		return
	}
	gc.pass.Reportf(fd.Name.Pos(),
		"exported entry point %s loops without a *govern.Guard; take a *govern.Guard or delegate to a function that does", funcKey(fd))
}
