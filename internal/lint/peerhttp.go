package lint

// peerhttp keeps every remote body bounded and closed by keeping all
// of them in one package: internal/resilience's Call sends a peer
// request, reads at most a limit of the answer, drains a bounded
// remainder and closes the body on every path, and its ReadBody reads
// an inbound body within a limit and a deadline. No other package of
// the module sends an HTTP client request or reads a request's or
// response's Body, so the invariant holds by construction. Assigning a
// Body, as a replayed request does, is not a read. A module nested in
// the loaded one (perfbench, a client of the service) is out of scope.

import (
	"go/ast"
	"go/types"
)

func newPeerhttp() *Analyzer {
	return &Analyzer{
		Name: "peerhttp",
		Doc:  "HTTP client sends and request or response Body reads happen only in internal/resilience",
		Run:  runPeerhttp,
	}
}

// clientSends are the net/http calls that send a request, keyed as
// funcFactKey renders them.
var clientSends = map[string]bool{
	"http.Client.Do":       true,
	"http.Client.Get":      true,
	"http.Client.Head":     true,
	"http.Client.Post":     true,
	"http.Client.PostForm": true,
	"http.Get":             true,
	"http.Head":            true,
	"http.Post":            true,
	"http.PostForm":        true,
}

func runPeerhttp(pass *Pass) {
	if pass.Nested || lastSegment(pass.Path) == "resilience" {
		return
	}
	for _, file := range pass.Files {
		// Inspect visits an assignment before its left-hand side.
		assigned := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						assigned[sel] = true
					}
				}
			case *ast.CallExpr:
				if fn, ok := calleeObject(pass.Info, n).(*types.Func); ok && clientSends[funcFactKey(fn)] {
					pass.Reportf(n.Pos(), "%s sends outside internal/resilience; use resilience.Call", funcFactKey(fn))
				}
			case *ast.SelectorExpr:
				if n.Sel.Name != "Body" || assigned[n] {
					break
				}
				for _, typ := range [...]string{"Request", "Response"} {
					if namedType(pass.Info.TypeOf(n.X), "http", typ) {
						pass.Reportf(n.Pos(), "read of an http.%s Body outside internal/resilience; use resilience.Call or resilience.ReadBody", typ)
					}
				}
			}
			return true
		})
	}
}
