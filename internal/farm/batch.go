package farm

import (
	"context"

	"omini/internal/core"
)

// ExtractBatch extracts every request concurrently through the farm,
// preserving input order in the results (core.RunBatch: bounded
// workers, the per-page watchdog and panic isolation, ErrUndispatched
// on cancellation). Each page runs through Extract, so a batch learns
// each site once under the per-site singleflight and replays the rule
// on the site's other pages, exactly as /extract traffic does: a stale
// rule is relearned and entombed, hits are drift-sampled, and the
// farm.* metrics count batch pages with the rest.
//
// Every page is a core.NewPage, from no pool: a batch result outlives
// the call, and a page the watchdog abandoned may still be running.
func (f *Farm) ExtractBatch(ctx context.Context, reqs []core.BatchRequest, opts core.BatchOptions) []core.BatchResult {
	return core.RunBatch(ctx, reqs, opts, func(ctx context.Context, req core.BatchRequest) (*core.Result, bool, error) {
		res, out, err := f.Extract(ctx, req.Site, core.NewPage(req.HTML))
		return res, out.FromRule, err
	})
}
