package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/rules"
)

// ErrPanicked marks a per-page extraction that panicked; the worker pool
// survives and the page reports this error instead.
var ErrPanicked = errors.New("core: extraction panicked")

// ErrUndispatched marks batch requests that were never handed to a
// worker because the batch context was cancelled first. It wraps the
// context's error, so errors.Is(err, context.Canceled) also holds.
var ErrUndispatched = errors.New("core: batch cancelled before dispatch")

// defaultPageTimeout is the per-page watchdog applied when
// BatchOptions.PageTimeout is zero: comfortably above any sane page's
// budget (the extractor's own default Deadline is 10s) while
// guaranteeing the pool cannot be held forever by a page stuck in
// ungoverned code.
const defaultPageTimeout = 30 * time.Second

// Batch extraction: the aggregation-server workload the paper's
// introduction motivates — hundreds of result pages from many sites,
// extracted concurrently, with each site's first page paying for discovery
// and the rest replaying the learned rule (Section 6.6's optimization,
// applied fleet-wide).

// BatchRequest is one page to extract.
type BatchRequest struct {
	// Site groups requests for rule reuse; empty disables the fast path
	// for this request.
	Site string
	// HTML is the page source.
	HTML string
}

// BatchResult is the outcome for one request, in input order.
type BatchResult struct {
	// Site echoes the request's site.
	Site string
	// Result is the extraction outcome; nil when Err is set.
	Result *Result
	// FromRule reports whether the cached-rule fast path served this page.
	FromRule bool
	// Err is the per-page failure, if any.
	Err error
}

// BatchOptions tune ExtractBatch.
type BatchOptions struct {
	// Workers bounds concurrency (default: GOMAXPROCS).
	Workers int
	// Rules supplies (and collects) per-site extraction rules; nil uses a
	// private store for the batch.
	Rules *rules.Store
	// PageTimeout is the per-page watchdog: a page still running after
	// this long is abandoned with a govern.ErrDeadline result while its
	// worker moves on. Zero applies defaultPageTimeout; negative
	// disables the watchdog.
	PageTimeout time.Duration
}

// ExtractBatch extracts every request concurrently, preserving input order
// in the results. Rules are learned on first success per site and replayed
// on subsequent pages; a replay that no longer matches falls back to
// rediscovery and refreshes the cached rule.
//
// Cancelling the context stops the batch promptly: dispatch halts, and
// in-flight pages observe the cancellation through their governor polls
// and abort with results carrying ctx.Err(). Requests on which no work
// started — never handed to a worker, or received by one only after the
// cancellation — report ErrUndispatched (wrapping ctx.Err()) instead,
// so callers can tell interrupted work from work that never started. Each
// page additionally runs under the PageTimeout watchdog: a stuck or
// over-budget page fails individually with govern.ErrDeadline while
// the pool survives.
func (e *Extractor) ExtractBatch(ctx context.Context, reqs []BatchRequest, opts BatchOptions) []BatchResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	store := opts.Rules
	if store == nil {
		store = rules.NewStore()
	}
	timeout := opts.PageTimeout
	if timeout == 0 {
		timeout = defaultPageTimeout
	}

	results := make([]BatchResult, len(reqs))
	dispatched := make([]bool, len(reqs))
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// The dispatcher's select can race a cancellation: when a
				// worker frees up just as the context dies, Go may pick the
				// send over ctx.Done() and hand over one more index. A page
				// received after cancellation never started any work, so it
				// reports ErrUndispatched like its never-sent peers rather
				// than masquerading as an interrupted extraction.
				if ctx.Err() != nil {
					results[i] = BatchResult{Site: reqs[i].Site, Err: fmt.Errorf("%w: %w", ErrUndispatched, ctx.Err())}
					continue
				}
				req := reqs[i]
				results[i] = e.extractOne(ctx, req, store, timeout)
			}
		}()
	}
dispatch:
	for i := 0; i < len(reqs); i++ {
		select {
		case next <- i:
			dispatched[i] = true
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// Mark undispatched requests distinctly from interrupted ones.
	for i := range reqs {
		if !dispatched[i] {
			results[i] = BatchResult{Site: reqs[i].Site, Err: fmt.Errorf("%w: %w", ErrUndispatched, ctx.Err())}
		}
	}
	return results
}

// extractOne serves a single batch request under the per-page watchdog.
// The page itself runs in a child goroutine; if it outlives the
// watchdog, this worker abandons it (the page's governor polls observe
// the expired context and it exits on its own shortly) and reports a
// dead-letter result, keeping the pool live. The context's metrics
// registry receives per-page counters — exactly one of core.batch_pages
// per request, plus core.batch_errors / core.batch_rule_hits /
// core.batch_watchdog / core.batch_panics as they apply — so an
// operator can reconcile a batch's results against /metricsz. Error and
// rule-hit counters are charged here, on the receiving side, so an
// abandoned page can never double-count its result.
func (e *Extractor) extractOne(ctx context.Context, req BatchRequest, store *rules.Store, timeout time.Duration) BatchResult {
	reg := obs.RegistryFrom(ctx)
	batchPageCount.Add(reg, 1)
	pctx, cancel := ctx, context.CancelFunc(func() {})
	if timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	done := make(chan BatchResult, 1)
	go func() { done <- e.extractPage(pctx, reg, req, store) }()

	var out BatchResult
	select {
	case out = <-done:
	case <-pctx.Done():
		select {
		case out = <-done:
			// The page finished in the same instant; keep its result.
		default:
			err := pctx.Err()
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				// The watchdog fired, not the batch: dead-letter the page.
				batchWatchdog.Add(reg, 1)
				err = fmt.Errorf("%w: %w", govern.ErrDeadline, err)
			}
			out = BatchResult{Site: req.Site, Err: err}
		}
	}
	if out.Err != nil {
		batchErrors.Add(reg, 1)
	}
	if out.FromRule {
		batchRuleHits.Add(reg, 1)
	}
	return out
}

// extractPage runs one page through the rule cache. A panic anywhere in
// the pipeline is isolated to this page: one pathological page yields
// one error result, never a dead worker pool.
func (e *Extractor) extractPage(ctx context.Context, reg *obs.Registry, req BatchRequest, store *rules.Store) (out BatchResult) {
	defer func() {
		if r := recover(); r != nil {
			batchPanics.Add(reg, 1)
			// Keep the panic value's own error chain intact when it has
			// one, so errors.Is sees through ErrPanicked to the cause.
			rerr, ok := r.(error)
			if !ok {
				rerr = fmt.Errorf("%v", r)
			}
			out = BatchResult{Site: req.Site, Err: fmt.Errorf("%w: %w", ErrPanicked, rerr)}
		}
	}()
	out = BatchResult{Site: req.Site}
	if req.Site != "" {
		if rule, err := store.Get(req.Site); err == nil {
			if res, err := e.ExtractWithRuleContext(ctx, req.HTML, rule); err == nil {
				out.Result = res
				out.FromRule = true
				return out
			}
			// Stale rule; rediscover below and refresh.
		}
	}
	res, err := e.ExtractContext(ctx, req.HTML)
	if err != nil {
		out.Err = err
		return out
	}
	out.Result = res
	if req.Site != "" {
		// Best effort: a racing worker may already have stored a rule for
		// the site; last write wins and both rules are valid.
		_ = store.Put(res.Rule(req.Site))
	}
	return out
}
