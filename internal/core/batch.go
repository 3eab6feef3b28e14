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
// applied fleet-wide). The rule cache is the caller's: RunBatch takes
// the per-page extraction as a function, and the wrapper farm's
// ExtractBatch passes its own Extract.

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

// BatchOptions tune RunBatch.
type BatchOptions struct {
	// Workers bounds concurrency (default: GOMAXPROCS).
	Workers int
	// PageTimeout is the per-page watchdog: a page still running after
	// this long is abandoned with a govern.ErrDeadline result while its
	// worker moves on. Zero applies defaultPageTimeout; negative
	// disables the watchdog.
	PageTimeout time.Duration
}

// PageFunc extracts one batch page, reporting whether a cached rule
// served it.
type PageFunc func(ctx context.Context, req BatchRequest) (res *Result, fromRule bool, err error)

// Dispatch hands every request, in input order, to at most workers
// goroutines (GOMAXPROCS when workers <= 0) that call run, and returns
// the results in input order once every run has returned. Cancelling
// the context stops dispatch promptly. A request on which no work
// started — never handed to a worker, or received by one only after
// the cancellation — gets undispatched(req, err) instead, with err
// ErrUndispatched wrapping ctx.Err(), so callers can tell interrupted
// work from work that never started.
func Dispatch[R any](ctx context.Context, reqs []BatchRequest, workers int, run func(BatchRequest) R, undispatched func(BatchRequest, error) R) []R {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	skip := func(i int) R {
		return undispatched(reqs[i], fmt.Errorf("%w: %w", ErrUndispatched, ctx.Err()))
	}
	results := make([]R, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
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
					results[i] = skip(i)
					continue
				}
				results[i] = run(reqs[i])
			}
		}()
	}
	// Requests are sent in order, so those from sent on never were.
	sent := 0
dispatch:
	for ; sent < len(reqs); sent++ {
		select {
		case next <- sent:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for i := sent; i < len(reqs); i++ {
		results[i] = skip(i)
	}
	return results
}

// RunBatch extracts every request with extract through Dispatch,
// preserving input order in the results. Each page runs under the
// PageTimeout watchdog: a stuck or over-budget page fails individually
// with govern.ErrDeadline, and a page whose extraction panics fails
// with ErrPanicked, while the pool survives. Pages in flight when the
// context is cancelled observe it through their governor polls and
// abort with results carrying ctx.Err().
func RunBatch(ctx context.Context, reqs []BatchRequest, opts BatchOptions, extract PageFunc) []BatchResult {
	timeout := opts.PageTimeout
	if timeout == 0 {
		timeout = defaultPageTimeout
	}
	return Dispatch(ctx, reqs, opts.Workers,
		func(req BatchRequest) BatchResult { return watchPage(ctx, req, timeout, extract) },
		func(req BatchRequest, err error) BatchResult { return BatchResult{Site: req.Site, Err: err} })
}

// watchPage serves a single batch request under the per-page watchdog.
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
func watchPage(ctx context.Context, req BatchRequest, timeout time.Duration, extract PageFunc) BatchResult {
	reg := obs.RegistryFrom(ctx)
	batchPageCount.Add(reg, 1)
	pctx, cancel := ctx, context.CancelFunc(func() {})
	if timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	done := make(chan BatchResult, 1)
	go func() { done <- isolatePage(pctx, reg, req, extract) }()

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

// isolatePage runs extract on one page. A panic anywhere in the
// pipeline is isolated to this page: one pathological page yields one
// error result, never a dead worker pool.
func isolatePage(ctx context.Context, reg *obs.Registry, req BatchRequest, extract PageFunc) (out BatchResult) {
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
	out.Result, out.FromRule, out.Err = extract(ctx, req)
	return out
}
