package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// errShed marks a downstream load-shed response (429/503 with an
// optional Retry-After): the node is alive but refusing work, so the
// router moves on without retrying it and without charging its
// breaker.
var errShed = errors.New("cluster: downstream shed")

// shedResult remembers the best load-shed response seen during the
// walk, so exhaustion can propagate it (status and Retry-After
// preserved) instead of inventing an error.
type shedResult struct {
	status     int
	retryAfter string
}

// route is the cluster routing path for one extraction request: hash
// the site to its owner, walk the failover chain with per-hop budgets
// and circuit breakers, degrade to local extraction when the chain is
// exhausted without a shed to propagate.
//
// It is also the cluster's trace boundary (obs.Enter): the coordinator
// makes the one sampling decision for the whole request and records
// "route" and "hop" spans. The decision travels with the context, and
// the peer client's obs.Transport (or obs.Inject, for the in-process
// local handler) forwards it in the X-Omini-Trace header, so the
// serving node's spans parent into this trace instead of starting
// their own.
//
// q is the request's query, parsed once by routable.
func (c *Coordinator) route(w http.ResponseWriter, r *http.Request, q url.Values) {
	requestCount.Add(c.stats, 1)
	site := q.Get("site")

	// The routing budget is the cluster analogue of the govern page
	// deadline: the body read and the whole candidate walk happen
	// inside it, and each hop gets a slice so one slow node cannot eat
	// the request.
	bctx, cancel := context.WithTimeout(r.Context(), c.cfg.Budget)
	defer cancel()
	deadline, _ := bctx.Deadline()
	body, err := resilience.ReadBody(w, r, deadline, c.cfg.MaxBodyBytes, nil)
	switch {
	case errors.Is(err, resilience.ErrTooLarge):
		writeError(r.Context(), w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: body exceeds %d bytes", c.cfg.MaxBodyBytes))
		return
	case errors.Is(err, os.ErrDeadlineExceeded):
		deadlineCount.Add(c.stats, 1)
		writeError(r.Context(), w, http.StatusGatewayTimeout, "cluster: routing budget exhausted")
		return
	case err != nil:
		writeError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("cluster: read body: %v", err))
		return
	}
	// One sampling decision per routed request, made here: an inbound
	// header's decision is adopted, otherwise this coordinator samples.
	// Either way the decision travels in the forwarded header, so the
	// serving node never samples independently (no partial traces).
	// Route/hop spans land in this coordinator's registry.
	rctx, sw := obs.Enter(bctx, w, r.Header, q, phaseRoute, c.sampler, c.stats, nil)
	defer func() {
		if t := sw.End(); t != nil {
			t.Node, t.Op, t.Site = c.selfOrProxy(), "route", site
			c.traces.Record(t)
		}
	}()

	g := govern.NewGuard(bctx, govern.Unlimited())

	candidates, err := c.candidates(g, site)
	if err != nil {
		c.expired(rctx, sw, r)
		return
	}

	var shed *shedResult
	for i, id := range candidates {
		if err := g.Check(); err != nil {
			break
		}
		if id == c.self {
			localCount.Add(c.stats, 1)
			c.serveLocal(rctx, sw, r, body)
			return
		}
		url, m := c.memberByID(id)
		if m == nil {
			continue
		}
		br := c.breakers.For(id)
		if !br.Allow() {
			failoverCount.Add(c.stats, 1)
			continue
		}
		hopBudget := time.Until(deadline) / time.Duration(len(candidates)-i)
		res, hopShed, err := c.hopSpanned(rctx, hopBudget, url, m, r, body)
		switch {
		case err == nil:
			br.Success()
			c.relay(sw, site, res, id, m)
			return
		case errors.Is(err, errShed):
			// Alive but refusing work: remember the first shed (the
			// owner's answer is the most authoritative) and move on
			// without penalizing the breaker.
			br.Success()
			if shed == nil {
				shed = hopShed
			}
		case bctx.Err() != nil:
			// Budget gone or caller gone, not node broken: don't charge
			// the breaker.
		default:
			br.Failure()
			failoverCount.Add(c.stats, 1)
			c.log.Warn("cluster hop failed", "node", id, "site", site, "err", err.Error())
		}
		if bctx.Err() != nil {
			break
		}
	}

	switch {
	case bctx.Err() != nil:
		c.expired(rctx, sw, r)
	case shed != nil:
		shedPropagated.Add(c.stats, 1)
		if shed.retryAfter != "" {
			sw.Header().Set("Retry-After", shed.retryAfter)
		}
		writeError(rctx, sw, shed.status, "cluster: downstream shedding load")
	default:
		c.fallbackLocal(rctx, sw, r, site, body)
	}
}

// statusClientClosed answers a request its caller cancelled (the
// status nginx logs as "client closed request").
const statusClientClosed = 499

// expired answers a request whose routing context ended. A budget that
// ran out is a 504 counted on cluster.deadline; a caller that cancelled
// is neither the budget's fault nor a node's, so nothing is counted.
func (c *Coordinator) expired(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		writeError(ctx, w, statusClientClosed, "cluster: request cancelled")
		return
	}
	deadlineCount.Add(c.stats, 1)
	writeError(ctx, w, http.StatusGatewayTimeout, "cluster: routing budget exhausted")
}

// candidates returns the site's failover chain: its ring owner first,
// then the remaining healthy nodes in ring order.
func (c *Coordinator) candidates(g *govern.Guard, site string) ([]string, error) {
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	return ring.successors(g, site, ring.size())
}

// memberByID resolves a node ID to its URL and member record.
func (c *Coordinator) memberByID(id string) (string, *member) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[id]
	if m == nil {
		return "", nil
	}
	return m.url, m
}

// hopSpanned runs one proxy hop under a "hop" span and pprof hop
// label. The client's obs.Transport forwards the hop span's context on
// traced requests — the serving node's handler span parents to it —
// and the coordinator's declined decision otherwise. A successful hop
// records its latency per-node and cluster-wide, with a trace exemplar
// when traced.
func (c *Coordinator) hopSpanned(ctx context.Context, budget time.Duration, url string, m *member, r *http.Request, body []byte) (resilience.Response, *shedResult, error) {
	var res resilience.Response
	var shed *shedResult
	var err error
	d := obs.Run(ctx, phaseHop, func(hctx context.Context) {
		obs.Labelled(hctx, m.label, func(pctx context.Context) {
			res, shed, err = c.hop(pctx, budget, url, r, body)
		})
	})
	if err == nil {
		secs := d.Seconds()
		m.lat.Observe(secs)
		hopSeconds.ObserveExemplar(c.stats, secs, obs.TraceIDFrom(ctx))
	}
	return res, shed, err
}

// hop forwards the request to one node, retrying transient failures
// with capped backoff+jitter inside the hop's slice of the routing
// budget. Load sheds and client errors are permanent for the retry
// policy: more attempts cannot change them. The client's obs.Transport
// replaces the inbound X-Omini-Trace header on the forwarded request —
// the coordinator's trace context, not the client's, is what the
// serving node must continue.
func (c *Coordinator) hop(ctx context.Context, budget time.Duration, url string, r *http.Request, body []byte) (resilience.Response, *shedResult, error) {
	hctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var res resilience.Response
	var shed *shedResult
	err := c.retry.Do(hctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, r.Method, url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			return resilience.Permanent(fmt.Errorf("cluster: build hop request: %w", err))
		}
		copyHeader(req.Header, r.Header)
		req.Header.Set(forwardedHeader, c.selfOrProxy())
		res, err = resilience.Call(c.client, req, c.cfg.MaxBodyBytes)
		switch {
		case res.Status == 0:
			return fmt.Errorf("cluster: hop: %w", err)
		case res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable:
			shed = &shedResult{status: res.Status, retryAfter: res.Header.Get("Retry-After")}
			return resilience.Permanent(fmt.Errorf("%w: status %d", errShed, res.Status))
		case res.Status >= 500:
			return fmt.Errorf("cluster: hop: status %d", res.Status)
		case errors.Is(err, resilience.ErrTooLarge):
			// Relaying a cut-off answer would hand the client a 2xx of
			// invalid JSON, and the node's answer is no shorter on a
			// retry: fail over.
			return resilience.Permanent(fmt.Errorf("cluster: hop: response: %w", err))
		case err != nil:
			return fmt.Errorf("cluster: hop: read response: %w", err)
		}
		return nil
	})
	return res, shed, err
}

// relay writes a successful hop response to the client, recording the
// serving node in the X-Omini-Node header and — when the payload is a
// JSON object — in a "node" field, so decision traces downstream of
// the coordinator can attribute the extraction.
func (c *Coordinator) relay(w http.ResponseWriter, site string, res resilience.Response, id string, m *member) {
	proxiedCount.Add(c.stats, 1)
	m.served.Add(1)
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if tr := res.Header.Get(obs.TraceHeader); tr != "" {
		w.Header().Set(obs.TraceHeader, tr)
	}
	w.Header().Set(nodeHeader, id)
	body := res.Body
	if res.Status >= 200 && res.Status < 300 {
		body = stampNode(body, id)
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(body)
	c.log.Debug("cluster routed", "node", id, "site", site, "status", res.Status)
}

// stampNode adds "node": id as the first member of a JSON object
// payload, splicing it in after the opening brace so the serving node's
// bytes and key order pass through unchanged. Non-object payloads
// (arrays, invalid JSON) are returned untouched.
func stampNode(body []byte, id string) []byte {
	open := len(body) - len(bytes.TrimLeft(body, " \t\r\n"))
	if open == len(body) || body[open] != '{' || !json.Valid(body) {
		return body
	}
	quoted, _ := json.Marshal(id) // a string always encodes
	rest := body[open+1:]
	out := make([]byte, 0, len(body)+len(quoted)+len(`"node": ,`))
	out = append(out, body[:open+1]...)
	out = append(out, `"node": `...)
	out = append(out, quoted...)
	// A valid object has a closing brace; an empty one takes no comma.
	if bytes.TrimLeft(rest, " \t\r\n")[0] != '}' {
		out = append(out, ',')
	}
	return append(out, rest...)
}

// serveLocal serves the request from this node's own shard, replaying
// the buffered body into the local handler. obs.Inject stamps the route
// span's decision, so the local handler's spans parent into the route
// span. Callers count the routing outcome (SeriesLocal) themselves so
// series names stay constant at their emission sites.
func (c *Coordinator) serveLocal(ctx context.Context, w http.ResponseWriter, r *http.Request, body []byte) {
	if _, m := c.memberByID(c.self); m != nil {
		m.served.Add(1)
	}
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	obs.Inject(ctx, r2.Header)
	node := c.self
	if node == "" {
		node = "local"
	}
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	c.local.ServeHTTP(buf, r2)
	copyHeader(w.Header(), buf.header)
	w.Header().Set(nodeHeader, node)
	out := buf.body.Bytes()
	if buf.status >= 200 && buf.status < 300 {
		out = stampNode(out, node)
	}
	w.WriteHeader(buf.status)
	_, _ = w.Write(out)
}

// fallbackLocal is the bottom of the degradation ladder: every peer
// for the shard is down, so the coordinator extracts locally rather
// than failing the request. The local response is buffered so a local
// load shed (429) — meaning the whole cluster is saturated — can be
// remapped to 503 with the limiter's Retry-After preserved; anything
// else relays verbatim.
func (c *Coordinator) fallbackLocal(ctx context.Context, w http.ResponseWriter, r *http.Request, site string, body []byte) {
	fallbackLocal.Add(c.stats, 1)
	c.log.Warn("cluster degraded to local extraction", "site", site)
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	obs.Inject(ctx, r2.Header)
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	c.local.ServeHTTP(buf, r2)
	status := buf.status
	if status == http.StatusTooManyRequests {
		status = http.StatusServiceUnavailable
	}
	copyHeader(w.Header(), buf.header)
	node := c.selfOrProxy() + " (fallback)"
	w.Header().Set(nodeHeader, node)
	out := buf.body.Bytes()
	if status >= 200 && status < 300 {
		out = stampNode(out, node)
	}
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// bufferedResponse captures a handler's response for inspection before
// relaying it.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) { b.status = status }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// copyHeader copies src into dst, skipping hop-local headers.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if strings.EqualFold(k, "Connection") || strings.EqualFold(k, "Content-Length") {
			continue
		}
		for _, v := range vs {
			dst[k] = append(dst[k], v)
		}
	}
}

// selfOrProxy names this coordinator in the forwarded header.
func (c *Coordinator) selfOrProxy() string {
	if c.self != "" {
		return c.self
	}
	return "proxy"
}
