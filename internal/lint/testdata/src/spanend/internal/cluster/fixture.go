// Package cluster exercises spanend: every span from obs.StartSpan or
// obs.StartLeaf must reach End on all paths.
package cluster

import (
	"context"

	"fixture/internal/obs"
)

type Coordinator struct{}

// The sanctioned shape: deferred End covers every path.
func (c *Coordinator) goodDefer(ctx context.Context) error {
	sctx, sp := obs.StartSpan(ctx, "cluster.good")
	defer sp.End()
	_ = sctx
	return nil
}

// End on one branch only: the error path leaks the span.
func (c *Coordinator) badOneBranch(ctx context.Context, fail bool) error {
	sctx, sp := obs.StartSpan(ctx, "cluster.branchy") // want "does not reach End on every path"
	_ = sctx
	if fail {
		return errDown
	}
	sp.End()
	return nil
}

// Discarding the span means nobody can end it.
func (c *Coordinator) badDiscard(ctx context.Context) {
	sctx, _ := obs.StartSpan(ctx, "cluster.discard") // want "discarded and never ended"
	_ = sctx
}

// Unconditional End before every return is fine without defer.
func (c *Coordinator) goodDirect(ctx context.Context, n int) int {
	sctx, sp := obs.StartSpan(ctx, "cluster.direct")
	_ = sctx
	total := n * 2
	sp.End()
	return total
}

// A deferred closure that ends the span covers every path.
func (c *Coordinator) goodDeferClosure(ctx context.Context) {
	sctx, sp := obs.StartSpan(ctx, "cluster.closure")
	defer func() {
		sp.End()
	}()
	_ = sctx
}

// Returning the span hands the End duty to the caller.
func (c *Coordinator) goodHandOff(ctx context.Context) (context.Context, *obs.Span) {
	sctx, sp := obs.StartSpan(ctx, "cluster.handoff")
	return sctx, sp
}

// The leaf form: a span value, ended directly and then restarted.
func (c *Coordinator) goodLeaf(ctx context.Context) {
	sp := obs.StartLeaf(ctx, "cluster.leaf")
	sp.End()
	sp = obs.StartLeaf(ctx, "cluster.leaf2")
	defer sp.End()
}

// A leaf span ended on one branch only leaks on the other.
func (c *Coordinator) badLeafBranch(ctx context.Context, fail bool) error {
	sp := obs.StartLeaf(ctx, "cluster.leafbranch") // want "span sp from obs.StartLeaf does not reach End on every path"
	if fail {
		return errDown
	}
	sp.End()
	return nil
}

// A leaf span nobody holds can never be ended.
func (c *Coordinator) badLeafDiscard(ctx context.Context) {
	obs.StartLeaf(ctx, "cluster.leafdiscard")   // want "span from obs.StartLeaf is discarded and never ended"
	_ = obs.StartLeaf(ctx, "cluster.leafblank") // want "span from obs.StartLeaf is discarded and never ended"
}

var errDown = error(nil)
