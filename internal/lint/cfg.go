package lint

// A lightweight per-function control-flow graph over go/ast statements,
// built with no dependencies beyond the stdlib (no x/tools). The CFG is
// the substrate for the lock-hold analyzer (lockhold): basic blocks
// hold statements in execution order, edges follow branches, loops
// (with back edges), switch/select dispatch, and early returns, and
// defer statements stay in their registration block so a path-walk
// sees exactly the defers that will run at exit on that path.
//
// Compound statements never appear whole in a block: a block holds the
// atomic statements plus branch/loop head expressions, so an analyzer
// can inspect Block.Stmts without re-walking nested bodies. Two marker
// node types (RangeHead, SelectHead) stand in for range-loop and
// select heads, which have no atomic AST equivalent; analyzers must
// unwrap them before calling ast.Inspect.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: nodes that execute in order with no
// internal branching.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Stmts are the block's nodes in execution order: atomic
	// statements, branch condition expressions, and the RangeHead /
	// SelectHead markers.
	Stmts []ast.Node
	// Succs are the successor blocks in control-flow order.
	Succs []*Block
	// Cond, when non-nil, is the two-way branch condition ending the
	// block: Succs[0] is the true edge and Succs[1] the false edge.
	// Only if-statements and for-loop conditions set it.
	Cond ast.Expr
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block execution starts in.
	Entry *Block
	// Exit is the single synthetic exit block every return reaches.
	// Panic paths terminate without reaching Exit.
	Exit *Block
	// Blocks lists every block, entry first.
	Blocks []*Block
}

// RangeHead marks the per-iteration head of a range loop in a block:
// the ranged expression is evaluated (and, for channels, received
// from) here, while the loop body lives in the successor blocks.
type RangeHead struct {
	Range *ast.RangeStmt
}

func (r *RangeHead) Pos() token.Pos { return r.Range.Pos() }
func (r *RangeHead) End() token.Pos { return r.Range.X.End() }

// SelectHead marks the dispatch point of a select statement; the
// communication clauses live in the successor blocks. A select without
// a default clause blocks here.
type SelectHead struct {
	Select     *ast.SelectStmt
	HasDefault bool
}

func (s *SelectHead) Pos() token.Pos { return s.Select.Pos() }
func (s *SelectHead) End() token.Pos { return s.Select.Pos() + 6 }

// CommOp wraps a select communication statement inside its clause
// block: by the time the clause runs, the operation was already chosen
// at the SelectHead, so the send or receive itself does not block
// there. inspectShallow unwraps the marker so value flow (bindings,
// hand-offs) stays visible to the analyzers.
type CommOp struct {
	Stmt ast.Stmt
}

func (c *CommOp) Pos() token.Pos { return c.Stmt.Pos() }
func (c *CommOp) End() token.Pos { return c.Stmt.End() }

// labelInfo tracks one label's targets: Target for goto, Brk/Cont for
// labeled break/continue once the labeled loop or switch registers
// them.
type labelInfo struct {
	target *Block
	brk    *Block
	cont   *Block
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminating
	// statement (return, branch, panic) until the next join point.
	cur *Block
	// brk and cont are the innermost-last break/continue target stacks.
	brk  []*Block
	cont []*Block
	// labels maps label names to their targets; gotos to labels that
	// appear later in the source are patched at the end of the build.
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel carries a label down to the loop or switch statement
	// it names, so labeled break/continue resolve.
	pendingLabel *labelInfo
	// fallthroughTarget is the next case clause while building a switch
	// clause body.
	fallthroughTarget *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG builds the control-flow graph of one function body. The
// graph does not descend into function literals: a closure is a value
// in the block that creates it, with its own CFG built on demand.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	entry := b.newBlock()
	exit := b.newBlock()
	b.cfg.Entry = entry
	b.cfg.Exit = exit
	b.cur = entry
	for _, s := range body.List {
		b.stmt(s)
	}
	b.jump(exit)
	for _, g := range b.gotos {
		if li := b.labels[g.label]; li != nil && li.target != nil {
			b.edge(g.from, li.target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// jump connects the current block to target, unless flow already
// terminated.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// add appends a node to the current block, opening an unreachable
// block for dead code after a terminator.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, n)
}

// takeLabel consumes the pending label for the statement that names
// it.
func (b *cfgBuilder) takeLabel() *labelInfo {
	li := b.pendingLabel
	b.pendingLabel = nil
	return li
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		lbl := b.newBlock()
		b.jump(lbl)
		b.cur = lbl
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		li.target = lbl
		b.pendingLabel = li
		b.stmt(s.Stmt)
		b.pendingLabel = nil
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				// Panic terminates the path without reaching Exit; the
				// deferred statements already on the path still run.
				b.cur = nil
			}
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Bad: atomic.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	cond.Cond = s.Cond
	then := b.newBlock()
	b.edge(cond, then) // Succs[0]: condition true
	join := b.newBlock()
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els) // Succs[1]: condition false
		b.cur = els
		b.stmt(s.Else)
		b.jump(join)
	} else {
		b.edge(cond, join) // Succs[1]: condition false
	}
	b.cur = then
	b.stmt(s.Body)
	b.jump(join)
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	lab := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.jump(head)
	b.cur = head
	body := b.newBlock()
	after := b.newBlock()
	if s.Cond != nil {
		b.add(s.Cond)
		head.Cond = s.Cond
		b.edge(head, body)  // Succs[0]: condition true
		b.edge(head, after) // Succs[1]: condition false
	} else {
		b.edge(head, body) // for {}: after is only reachable via break
	}
	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		contTarget = post
	}
	if lab != nil {
		lab.brk, lab.cont = after, contTarget
	}
	b.brk = append(b.brk, after)
	b.cont = append(b.cont, contTarget)
	b.cur = body
	b.stmt(s.Body)
	if post != nil {
		b.jump(post)
		b.cur = post
		b.add(s.Post)
	}
	b.jump(head)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	lab := b.takeLabel()
	head := b.newBlock()
	b.jump(head)
	b.cur = head
	b.add(&RangeHead{Range: s})
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)
	if lab != nil {
		lab.brk, lab.cont = after, head
	}
	b.brk = append(b.brk, after)
	b.cont = append(b.cont, head)
	b.cur = body
	b.stmt(s.Body)
	b.jump(head)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	lab := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	sw := b.cur
	if sw == nil {
		sw = b.newBlock()
		b.cur = sw
	}
	join := b.newBlock()
	if lab != nil {
		lab.brk = join
	}
	b.brk = append(b.brk, join)
	clauses := make([]*Block, 0, len(s.Body.List))
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(sw, blk)
		clauses = append(clauses, blk)
	}
	if !hasDefault {
		b.edge(sw, join)
	}
	for i, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		b.cur = clauses[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(clauses) {
			b.fallthroughTarget = clauses[i+1]
		} else {
			b.fallthroughTarget = nil
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.fallthroughTarget = nil
		b.jump(join)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	lab := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	sw := b.cur
	join := b.newBlock()
	if lab != nil {
		lab.brk = join
	}
	b.brk = append(b.brk, join)
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(sw, blk)
		b.cur = blk
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.jump(join)
	}
	if !hasDefault {
		b.edge(sw, join)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	lab := b.takeLabel()
	hasDefault := false
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	b.add(&SelectHead{Select: s, HasDefault: hasDefault})
	sel := b.cur
	join := b.newBlock()
	if lab != nil {
		lab.brk = join
	}
	b.brk = append(b.brk, join)
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(sel, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(&CommOp{Stmt: cc.Comm})
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.jump(join)
	}
	// select {} blocks forever: join stays unreachable, which is what
	// the path analyses should see.
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = join
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var target *Block
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.brk
			}
		} else if len(b.brk) > 0 {
			target = b.brk[len(b.brk)-1]
		}
		if target != nil {
			b.jump(target)
		} else {
			b.cur = nil
		}
	case token.CONTINUE:
		var target *Block
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.cont
			}
		} else if len(b.cont) > 0 {
			target = b.cont[len(b.cont)-1]
		}
		if target != nil {
			b.jump(target)
		} else {
			b.cur = nil
		}
	case token.GOTO:
		if b.cur != nil && s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		if b.fallthroughTarget != nil {
			b.jump(b.fallthroughTarget)
		} else {
			b.cur = nil
		}
	}
}
