package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"omini/internal/core"
	"omini/internal/govern"
)

// BatchResult is the cluster-level outcome for one page, in input
// order.
type BatchResult struct {
	// Site echoes the request's site.
	Site string
	// Node is the cluster node that served the page (the fallback path
	// is marked "<node> (fallback)"); empty when the page was never
	// dispatched.
	Node string
	// Redispatched reports that the page was served by a node other
	// than its ring owner at dispatch time — the owner died, was
	// ejected, or shed the page mid-batch.
	Redispatched bool
	// Status is the HTTP status of the serving response.
	Status int
	// Body is the raw JSON response (the extraction payload on
	// success, the structured error otherwise).
	Body []byte
	// Err is the per-page failure, if any.
	Err error
}

// BatchOptions tune ExtractBatch.
type BatchOptions struct {
	// Workers bounds concurrency (default: GOMAXPROCS).
	Workers int
}

// ExtractBatch distributes a batch across the cluster: each page is
// routed to its site's ring owner (keeping that node's rule cache hot)
// through the same failover walk as interactive requests, so pages
// assigned to a node that dies mid-batch are transparently re-served
// by survivors — or by the coordinator's local fallback when no
// survivor remains. Dispatch is core.Dispatch: results are in input
// order, cancelling ctx stops dispatch promptly, a page in flight
// reports the cancellation, and a page on which no work started
// reports core.ErrUndispatched wrapping ctx.Err(). A page that
// exhausts its routing budget dead-letters with govern.ErrDeadline
// while the pool survives.
func (c *Coordinator) ExtractBatch(ctx context.Context, reqs []core.BatchRequest, opts BatchOptions) []BatchResult {
	return core.Dispatch(ctx, reqs, opts.Workers,
		func(req core.BatchRequest) BatchResult { return c.extractPage(ctx, req) },
		func(req core.BatchRequest, err error) BatchResult { return BatchResult{Site: req.Site, Err: err} })
}

// extractPage routes one batch page through the cluster, capturing the
// response and attributing it to the node that served.
func (c *Coordinator) extractPage(ctx context.Context, req core.BatchRequest) BatchResult {
	g := govern.NewGuard(ctx, govern.Unlimited())
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	owner, _ := ring.owner(g, req.Site)

	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"/extract?site="+url.QueryEscape(req.Site), strings.NewReader(req.HTML))
	if err != nil {
		batchPages.Add(c.stats, 1)
		batchErrors.Add(c.stats, 1)
		return BatchResult{Site: req.Site, Err: fmt.Errorf("cluster: build batch request: %w", err)}
	}
	hr.Header.Set("Content-Type", "text/html")

	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	if q := c.routable(hr); q != nil {
		c.route(buf, hr, q)
	} else {
		buf.header.Set(nodeHeader, "local")
		c.local.ServeHTTP(buf, hr)
	}

	out := BatchResult{
		Site:   req.Site,
		Node:   buf.header.Get(nodeHeader),
		Status: buf.status,
		Body:   buf.body.Bytes(),
	}
	batchPages.Add(c.stats, 1)
	if owner != "" && out.Node != "" && out.Node != owner {
		out.Redispatched = true
		redispatches.Add(c.stats, 1)
	}
	switch {
	case buf.status < 400:
	case ctx.Err() != nil:
		// The batch was cancelled while the page was routed.
		out.Err = fmt.Errorf("cluster: page interrupted: %w", ctx.Err())
	case buf.status == http.StatusGatewayTimeout:
		out.Err = fmt.Errorf("%w: cluster: page routing budget exhausted", govern.ErrDeadline)
	default:
		out.Err = fmt.Errorf("cluster: page failed: status %d", buf.status)
	}
	if out.Err != nil {
		batchErrors.Add(c.stats, 1)
	}
	return out
}
