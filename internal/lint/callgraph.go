package lint

// Cross-function call-graph facts for the control-flow analyzers:
// which functions block (HTTP round-trips, channel operations,
// waits), which take sync locks, and which close the body of an
// *http.Response parameter. Facts are computed once per run over
// every loaded package, seeded from an intrinsics table for the
// standard library (whose bodies are not analyzed) and propagated
// through the module's own call graph to a fixed point.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// blockingIntrinsics names standard-library calls that block the
// calling goroutine on I/O, another goroutine, or the clock. Keys are
// "pkg.Func" for functions and "pkg.Recv.Method" for methods, matched
// by package name (not path) so fixture stand-ins exercise the same
// table. sync.Mutex.Lock is deliberately absent: nested lock
// acquisition is ordinary; lockhold's concern is locks held across
// the operations listed here.
var blockingIntrinsics = map[string]bool{
	"http.Client.Do":                true,
	"http.Client.Get":               true,
	"http.Client.Head":              true,
	"http.Client.Post":              true,
	"http.Client.PostForm":          true,
	"http.Transport.RoundTrip":      true,
	"http.RoundTripper.RoundTrip":   true,
	"http.Get":                      true,
	"http.Head":                     true,
	"http.Post":                     true,
	"http.PostForm":                 true,
	"http.ListenAndServe":           true,
	"http.ListenAndServeTLS":        true,
	"http.Server.ListenAndServe":    true,
	"http.Server.ListenAndServeTLS": true,
	"http.Server.Serve":             true,
	"http.Server.Shutdown":          true,
	"net.Dial":                      true,
	"net.DialTimeout":               true,
	"net.Dialer.Dial":               true,
	"net.Dialer.DialContext":        true,
	"sync.WaitGroup.Wait":           true,
	"sync.Cond.Wait":                true,
	"time.Sleep":                    true,
}

// CallFacts classifies functions for the control-flow analyzers.
type CallFacts struct {
	blocking map[*types.Func]bool
	locking  map[*types.Func]bool
	// bodyCloser maps a function to the index of the *http.Response
	// parameter whose Body it closes.
	bodyCloser map[*types.Func]int
}

// funcFactKey renders a *types.Func as an intrinsics-table key:
// "pkg.Name" for functions, "pkg.Recv.Name" for methods with the
// receiver's pointer stripped.
func funcFactKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Name() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// intrinsicBlockingCall reports whether the call is a known-blocking
// standard-library operation.
func intrinsicBlockingCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	return ok && blockingIntrinsics[funcFactKey(fn)]
}

// inspectShallow walks n skipping goroutine bodies: a `go func(){…}()`
// literal runs on another goroutine, so nothing inside it executes as
// part of the enclosing function. Deferred and directly-called
// literals stay in scope. The walk also never descends into the
// marker nodes (they are not ast-walkable); callers unwrap them
// first.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	switch m := n.(type) {
	case *RangeHead:
		inspectShallow(m.Range.X, f)
		return
	case *SelectHead:
		return
	case *CommOp:
		inspectShallow(m.Stmt, f)
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if _, lit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); lit {
				// Visit the call's arguments (evaluated synchronously)
				// but not the literal's body.
				for _, a := range g.Call.Args {
					inspectShallow(a, f)
				}
				return false
			}
		}
		return f(n)
	})
}

// BuildCallFacts computes the call-graph facts for one run's loaded
// packages.
func BuildCallFacts(pkgs []*Package) *CallFacts {
	cf := &CallFacts{
		blocking:   make(map[*types.Func]bool),
		locking:    make(map[*types.Func]bool),
		bodyCloser: make(map[*types.Func]int),
	}
	// callers[f] lists the module functions that call f, for upward
	// propagation.
	callers := make(map[*types.Func][]*types.Func)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cf.seed(pkg.Info, fn, fd, callers)
			}
		}
	}
	cf.propagate(cf.blocking, callers)
	return cf
}

// seed records a function's direct facts and call edges.
func (cf *CallFacts) seed(info *types.Info, fn *types.Func, fd *ast.FuncDecl, callers map[*types.Func][]*types.Func) {
	inspectShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			cf.blocking[fn] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cf.blocking[fn] = true
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				cf.blocking[fn] = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					cf.blocking[fn] = true
				}
			}
		case *ast.CallExpr:
			if intrinsicBlockingCall(info, n) {
				cf.blocking[fn] = true
			}
			if mutexLockCall(info, n) != "" {
				cf.locking[fn] = true
			}
			if callee, ok := calleeObject(info, n).(*types.Func); ok {
				callers[callee] = append(callers[callee], fn)
			}
		}
		return true
	})
	if idx, ok := closesResponseParam(info, fd); ok {
		cf.bodyCloser[fn] = idx
	}
}

// propagate closes a fact over the call graph: a caller of a fact-
// holding function holds the fact.
func (cf *CallFacts) propagate(fact map[*types.Func]bool, callers map[*types.Func][]*types.Func) {
	work := make([]*types.Func, 0, len(fact))
	for fn := range fact {
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[fn] {
			if !fact[caller] {
				fact[caller] = true
				work = append(work, caller)
			}
		}
	}
}

// mutexLockCall returns the printed receiver of a Lock/RLock call on a
// sync.Mutex or sync.RWMutex ("c.mu"), or "" for any other call.
// unlockCall is the mirror for Unlock/RUnlock.
func mutexLockCall(info *types.Info, call *ast.CallExpr) string {
	return mutexCall(info, call, "Lock", "RLock")
}

func mutexUnlockCall(info *types.Info, call *ast.CallExpr) string {
	return mutexCall(info, call, "Unlock", "RUnlock")
}

func mutexCall(info *types.Info, call *ast.CallExpr, names ...string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	if !namedType(tv.Type, "sync", "Mutex") && !namedType(tv.Type, "sync", "RWMutex") {
		return ""
	}
	return types.ExprString(sel.X)
}

// closesResponseParam reports the index of an *http.Response parameter
// whose Body the function closes, for recognizing drain-and-close
// helpers.
func closesResponseParam(info *types.Info, fd *ast.FuncDecl) (int, bool) {
	if fd.Type.Params == nil {
		return 0, false
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		tv, isResp := info.Types[field.Type]
		for _, name := range field.Names {
			if isResp && isResponsePtr(tv.Type) {
				obj := info.Defs[name]
				if obj != nil && closesBodyOf(info, fd.Body, obj) {
					return idx, true
				}
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return 0, false
}

// isResponsePtr reports whether t is *http.Response (or http.Response).
func isResponsePtr(t types.Type) bool {
	return namedType(t, "http", "Response")
}

// closesBodyOf reports whether the body contains a <v>.Body.Close()
// call on the given variable.
func closesBodyOf(info *types.Info, body *ast.BlockStmt, v types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if closeTargets(info, call, v) {
			found = true
		}
		return true
	})
	return found
}

// closeTargets reports whether call is <v>.Body.Close() for the
// response variable v.
func closeTargets(info *types.Info, call *ast.CallExpr, v types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "Body" {
		return false
	}
	id, ok := ast.Unparen(inner.X).(*ast.Ident)
	return ok && info.Uses[id] == v
}

// CallBlocks reports whether a call blocks the calling goroutine:
// a blocking intrinsic or a module function that (transitively)
// blocks.
func (cf *CallFacts) CallBlocks(info *types.Info, call *ast.CallExpr) bool {
	if intrinsicBlockingCall(info, call) {
		return true
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	return ok && cf.blocking[fn]
}

// FuncBlocks reports whether fn (transitively) blocks.
func (cf *CallFacts) FuncBlocks(fn *types.Func) bool {
	return fn != nil && (cf.blocking[fn] || blockingIntrinsics[funcFactKey(fn)])
}

// FuncLocks reports whether fn directly acquires a sync.Mutex or
// sync.RWMutex.
func (cf *CallFacts) FuncLocks(fn *types.Func) bool {
	return fn != nil && cf.locking[fn]
}

// BodyCloserParam reports the *http.Response parameter index whose
// Body fn closes.
func (cf *CallFacts) BodyCloserParam(fn *types.Func) (int, bool) {
	if fn == nil {
		return 0, false
	}
	idx, ok := cf.bodyCloser[fn]
	return idx, ok
}
