package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as a function body and builds its CFG.
func parseBody(t *testing.T, src string) (*ast.BlockStmt, *CFG) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "t.go", "package p\nfunc f() {\n"+src+"\n}", 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	body := file.Decls[0].(*ast.FuncDecl).Body
	return body, BuildCFG(body)
}

// callTo matches a CFG node containing a call to the named function.
func callTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		found := false
		inspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		return found
	}
}

// matchDefer matches a defer of a call to the named function.
func matchDefer(name string) func(ast.Node) bool {
	inner := callTo(name)
	return func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		return ok && inner(d)
	}
}

func TestCFGBranchOneArm(t *testing.T) {
	// mark() runs only on the true arm: the false edge escapes.
	_, cfg := parseBody(t, `
		if cond() {
			mark()
		}
		done()
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("false branch should escape without mark()")
	}
	if cfg.escapes(cfg.Entry, 0, callTo("done")) {
		t.Fatal("done() is on every path; nothing should escape it")
	}
}

func TestCFGBranchBothArms(t *testing.T) {
	_, cfg := parseBody(t, `
		if cond() {
			mark()
		} else {
			mark()
		}
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("mark() covers both arms; no path should escape")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	// The early return exits before mark(): that path escapes.
	_, cfg := parseBody(t, `
		if cond() {
			return
		}
		mark()
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("early return should escape without mark()")
	}
}

func TestCFGLoopZeroIterations(t *testing.T) {
	// A conditional loop may run zero times: mark() inside the body is
	// not on every path, but after the loop it is.
	_, cfg := parseBody(t, `
		for i := 0; i < n; i++ {
			mark()
		}
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("zero-iteration path should escape the loop body")
	}

	_, cfg = parseBody(t, `
		for i := 0; i < n; i++ {
			work()
		}
		mark()
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("mark() after the loop is on every path")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	// The back edge must exist: a for {} with no break never reaches
	// exit, so nothing escapes.
	_, cfg := parseBody(t, `
		for {
			work()
		}
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("an endless loop never reaches exit; no escape")
	}

	// break restores the path to exit.
	_, cfg = parseBody(t, `
		for {
			if cond() {
				break
			}
		}
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("break should reach exit without mark()")
	}
}

func TestCFGDefer(t *testing.T) {
	// A defer stays in its registration block: every path from after
	// the acquisition passes the defer node, so nothing escapes the
	// release.
	body, cfg := parseBody(t, `
		x := acquire()
		defer release(x)
		if cond() {
			return
		}
		work()
	`)
	acq, _, ok := cfg.blockOf(body.List[0])
	if !ok {
		t.Fatal("acquire statement not located in the graph")
	}
	if cfg.escapes(acq, 1, matchDefer("release")) {
		t.Fatal("deferred release is registered on every path; no escape")
	}

	// A defer inside one branch covers only that branch.
	body, cfg = parseBody(t, `
		x := acquire()
		if cond() {
			defer release(x)
		}
		work()
	`)
	acq, _, ok = cfg.blockOf(body.List[0])
	if !ok {
		t.Fatal("acquire statement not located in the graph")
	}
	if !cfg.escapes(acq, 1, matchDefer("release")) {
		t.Fatal("defer on one branch only: the other branch escapes")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	// A panic path ends without reaching exit: it neither escapes nor
	// needs the match.
	_, cfg := parseBody(t, `
		if cond() {
			panic("boom")
		}
		mark()
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("panic terminates its path; the surviving path hits mark()")
	}
}

func TestCFGSelectBlocksForever(t *testing.T) {
	// select {} never proceeds: code after it is unreachable.
	_, cfg := parseBody(t, `
		select {}
		mark()
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("select{} blocks forever; exit is unreachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	// A labeled break from an inner loop exits the outer loop,
	// skipping mark() at the outer loop's tail.
	_, cfg := parseBody(t, `
	outer:
		for {
			for range items {
				if cond() {
					break outer
				}
			}
			mark()
		}
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("labeled break should reach exit without mark()")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	// fallthrough chains clause bodies; a switch with a default and
	// mark() in every clause covers all paths.
	_, cfg := parseBody(t, `
		switch v() {
		case 1:
			fallthrough
		case 2:
			mark()
		default:
			mark()
		}
	`)
	if cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("all switch paths reach mark()")
	}

	// Without a default clause, the no-match path escapes.
	_, cfg = parseBody(t, `
		switch v() {
		case 1:
			mark()
		}
	`)
	if !cfg.escapes(cfg.Entry, 0, callTo("mark")) {
		t.Fatal("switch without default has a fall-past path")
	}
}
