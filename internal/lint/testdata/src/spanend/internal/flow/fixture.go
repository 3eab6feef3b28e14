// Package flow is outside the serving packages: span endings are
// checked in every package.
package flow

import (
	"context"

	"fixture/internal/obs"
)

// Span endings are checked in every package.
func badSpan(ctx context.Context, fail bool) error {
	sctx, sp := obs.StartSpan(ctx, "flow.phase") // want "does not reach End on every path"
	_ = sctx
	if fail {
		return nil
	}
	sp.End()
	return nil
}
