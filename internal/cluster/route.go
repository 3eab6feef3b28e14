package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	rpprof "runtime/pprof"
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

// hopResult is a relayable response captured from one proxy hop.
type hopResult struct {
	status int
	header http.Header
	body   []byte
}

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
// It is also the cluster's tracing root: the coordinator makes the one
// sampling decision for the whole request, records "route" and "hop"
// spans, and forwards the decision (and span context) in the
// X-Omini-Trace header so the serving node's spans parent into this
// trace instead of starting their own.
func (c *Coordinator) route(w http.ResponseWriter, r *http.Request) {
	c.stats.Add(SeriesRequests, 1)
	site := r.URL.Query().Get("site")

	body, err := io.ReadAll(io.LimitReader(r.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(r.Context(), w, http.StatusBadRequest, fmt.Sprintf("cluster: read body: %v", err))
		return
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		writeError(r.Context(), w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: body exceeds %d bytes", c.cfg.MaxBodyBytes))
		return
	}

	// The routing budget is the cluster analogue of the govern page
	// deadline: the whole candidate walk happens inside it, and each
	// hop gets a slice so one slow node cannot eat the request.
	bctx, cancel := context.WithTimeout(r.Context(), c.cfg.Budget)
	defer cancel()
	// Route/hop spans land in this coordinator's registry even when the
	// inbound context carries none.
	bctx = obs.WithRegistry(bctx, c.stats)

	// One sampling decision per routed request, made here: an inbound
	// header's decision is adopted, otherwise this coordinator samples.
	// Either way the decision travels in the forwarded header, so the
	// serving node never samples independently (no partial traces).
	sc, scErr := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	var sampled bool
	if scErr == nil && sc.Valid() {
		sampled = sc.Sampled
	} else {
		sampled = forceTrace(r) || c.sampler.Sample()
	}
	var rec *obs.TraceRecorder
	var declined string
	if sampled {
		bctx, rec = obs.StartTrace(bctx, sc, false)
	} else {
		declined = obs.SpanContext{TraceID: obs.NewTraceID()}.Header()
	}
	rctx, root := obs.StartSpan(bctx, "route")
	var sw http.ResponseWriter = w
	if rec != nil {
		st := &statusRecorder{ResponseWriter: w}
		sw = st
		w.Header().Set(obs.TraceHeader, root.Context().Header())
		defer func() {
			root.End()
			status := st.code
			if status == 0 {
				status = http.StatusOK
			}
			c.recordTrace(rec, site, status, root.Duration())
		}()
	} else {
		defer root.End()
	}
	// The header forwarded when this node serves the request itself:
	// the route span's context when traced, the declined decision
	// otherwise.
	localTH := declined
	if hsc := obs.SpanContextFrom(rctx); hsc.Valid() {
		localTH = hsc.Header()
	}

	deadline, _ := bctx.Deadline()
	g := govern.NewGuard(bctx, govern.Unlimited())

	candidates, err := c.candidates(g, site)
	if err != nil {
		c.stats.Add(SeriesDeadline, 1)
		writeError(rctx, sw, http.StatusGatewayTimeout, "cluster: routing budget exhausted")
		return
	}

	var shed *shedResult
	for i, id := range candidates {
		if err := g.Check(); err != nil {
			break
		}
		if id == c.self {
			c.stats.Add(SeriesLocal, 1)
			c.serveLocal(rctx, sw, r, body, localTH)
			return
		}
		url, m := c.memberByID(id)
		if m == nil {
			continue
		}
		br := c.breakers.For(id)
		if !br.Allow() {
			c.stats.Add(SeriesFailover, 1)
			continue
		}
		hopBudget := time.Until(deadline) / time.Duration(len(candidates)-i)
		res, hopShed, err := c.hopSpanned(rctx, hopBudget, url, id, m, declined, r, body)
		switch {
		case err == nil:
			br.Success()
			c.relay(sw, r, res, id, m)
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
			// Budget gone, not node broken: don't charge the breaker.
		default:
			br.Failure()
			c.stats.Add(SeriesFailover, 1)
			c.log.Warn("cluster hop failed", "node", id, "site", site, "err", err.Error())
		}
		if bctx.Err() != nil {
			break
		}
	}

	switch {
	case bctx.Err() != nil:
		c.stats.Add(SeriesDeadline, 1)
		writeError(rctx, sw, http.StatusGatewayTimeout, "cluster: routing budget exhausted")
	case shed != nil:
		c.stats.Add(SeriesShedPropagated, 1)
		if shed.retryAfter != "" {
			sw.Header().Set("Retry-After", shed.retryAfter)
		}
		writeError(rctx, sw, shed.status, "cluster: downstream shedding load")
	default:
		c.fallbackLocal(rctx, sw, r, body, localTH)
	}
}

// forceTrace reports whether the request explicitly opted into tracing
// (the same ?trace= values serve honors for inline traces).
func forceTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// statusRecorder captures the final status written to a routed
// response, for the trace summary.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// recordTrace folds the coordinator's routing half of a traced request
// into the trace sink; on self-served requests the sink merges it with
// the serve half recorded under the same trace ID.
func (c *Coordinator) recordTrace(rec *obs.TraceRecorder, site string, status int, dur time.Duration) {
	t := &obs.TraceData{
		TraceSummary: obs.TraceSummary{
			TraceID:    rec.TraceID().String(),
			Node:       c.selfOrProxy(),
			Op:         "route",
			Site:       site,
			Status:     status,
			StartedAt:  rec.Start(),
			DurationNS: dur.Nanoseconds(),
		},
		Attrs:   rec.Attrs(),
		Charges: rec.Charges(),
		Spans:   rec.Spans(),
	}
	t.SpanCount = len(t.Spans)
	c.traces.Record(t)
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
// label. The forwarded X-Omini-Trace header carries the hop span's
// context on traced requests — the serving node's handler span parents
// to it — and the coordinator's declined decision otherwise. A
// successful hop records its latency per-node and cluster-wide, with a
// trace exemplar when traced.
func (c *Coordinator) hopSpanned(ctx context.Context, budget time.Duration, url, id string, m *member, declined string, r *http.Request, body []byte) (*hopResult, *shedResult, error) {
	hctx, sp := obs.StartSpan(ctx, "hop")
	th := declined
	if hsc := sp.Context(); hsc.Valid() {
		th = hsc.Header()
	}
	var res *hopResult
	var shed *shedResult
	var err error
	rpprof.Do(hctx, rpprof.Labels("hop", id), func(pctx context.Context) {
		res, shed, err = c.hop(pctx, budget, url, th, r, body)
	})
	sp.End()
	if err == nil {
		secs := sp.Duration().Seconds()
		m.lat.Observe(secs)
		c.stats.ObserveExemplar(seriesHopSeconds, secs, obs.TraceIDStringFrom(ctx))
	}
	return res, shed, err
}

// hop forwards the request to one node, retrying transient failures
// with capped backoff+jitter inside the hop's slice of the routing
// budget. Load sheds and client errors are permanent for the retry
// policy: more attempts cannot change them. traceHeader replaces the
// inbound X-Omini-Trace header on the forwarded request — the
// coordinator's trace context, not the client's, is what the serving
// node must continue.
func (c *Coordinator) hop(ctx context.Context, budget time.Duration, url, traceHeader string, r *http.Request, body []byte) (*hopResult, *shedResult, error) {
	hctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var res *hopResult
	var shed *shedResult
	err := c.retry.Do(hctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, r.Method, url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			return resilience.Permanent(fmt.Errorf("cluster: build hop request: %w", err))
		}
		copyHeader(req.Header, r.Header)
		req.Header.Set(forwardedHeader, c.selfOrProxy())
		setTraceHeader(req.Header, traceHeader)
		resp, err := c.client.Do(req)
		if err != nil {
			return fmt.Errorf("cluster: hop: %w", err)
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			shed = &shedResult{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			return resilience.Permanent(fmt.Errorf("%w: status %d", errShed, resp.StatusCode))
		case resp.StatusCode >= 500:
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("cluster: hop: status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes+1))
		if err != nil {
			return fmt.Errorf("cluster: hop: read response: %w", err)
		}
		res = &hopResult{status: resp.StatusCode, header: resp.Header, body: b}
		return nil
	})
	return res, shed, err
}

// relay writes a successful hop response to the client, recording the
// serving node in the X-Omini-Node header and — when the payload is a
// JSON object — in a "node" field, so decision traces downstream of
// the coordinator can attribute the extraction.
func (c *Coordinator) relay(w http.ResponseWriter, r *http.Request, res *hopResult, id string, m *member) {
	c.stats.Add(SeriesProxied, 1)
	m.served.Add(1)
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if tr := res.header.Get(obs.TraceHeader); tr != "" {
		w.Header().Set(obs.TraceHeader, tr)
	}
	w.Header().Set(nodeHeader, id)
	body := res.body
	if res.status >= 200 && res.status < 300 {
		body = stampNode(body, id)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(body)
	c.log.Debug("cluster routed", "node", id, "site", r.URL.Query().Get("site"), "status", res.status)
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

// setTraceHeader replaces h's X-Omini-Trace with the coordinator's
// value (span context or declined decision); an empty value clears the
// inbound header so a downstream node never continues the client's raw
// context behind the coordinator's back.
func setTraceHeader(h http.Header, value string) {
	if value != "" {
		h.Set(obs.TraceHeader, value)
	} else {
		h.Del(obs.TraceHeader)
	}
}

// serveLocal serves the request from this node's own shard, replaying
// the buffered body into the local handler. The forwarded trace header
// parents the local handler's spans into the route span. Callers count
// the routing outcome (SeriesLocal) themselves so series names stay
// constant at their emission sites.
func (c *Coordinator) serveLocal(ctx context.Context, w http.ResponseWriter, r *http.Request, body []byte, traceHeader string) {
	if _, m := c.memberByID(c.self); m != nil {
		m.served.Add(1)
	}
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	setTraceHeader(r2.Header, traceHeader)
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
func (c *Coordinator) fallbackLocal(ctx context.Context, w http.ResponseWriter, r *http.Request, body []byte, traceHeader string) {
	c.stats.Add(SeriesFallbackLocal, 1)
	c.log.Warn("cluster degraded to local extraction", "site", r.URL.Query().Get("site"))
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	setTraceHeader(r2.Header, traceHeader)
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
