package obs

// The trace boundary: the one place a request's trace decision crosses
// HTTP. Inbound, Enter reads the X-Omini-Trace header, makes the
// request's sampling decision, starts its recorder and root span and
// echoes the header; End hands the finished trace back. Outbound,
// Inject stamps a context's decision onto a header set, and Transport
// does it for every request a peer client sends. internal/serve and
// internal/cluster call Enter; their peer clients go through Transport.

import (
	"context"
	"maps"
	"net/http"
	"net/url"
)

// WantTrace reports whether a request's query asks for a trace
// (?trace=1, true or yes): such a request is always sampled, and serve
// returns its decision trace inline.
func WantTrace(q url.Values) bool {
	switch q.Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// StatusWriter records the status a handler answers with.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

// Unwrap exposes the connection's writer to http.ResponseController.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Wrote reports whether the handler has written a status or a body.
func (w *StatusWriter) Wrote() bool { return w.status != 0 }

// Status returns the status the response was written with: 200, as in
// net/http, when the handler wrote nothing.
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Boundary is one inbound request's side of the trace boundary: the
// writer its handler answers through, and its root span and (when
// sampled) trace recorder. Create with Enter; call End once the
// handler returns.
type Boundary struct {
	StatusWriter
	root *span
	rec  *TraceRecorder
}

// Enter opens the trace boundary of one inbound request. A valid
// X-Omini-Trace header in h carries the upstream decision and wins.
// Otherwise a request eligible for tracing — q is its parsed query, nil
// for a request that is not — is sampled when it asks with ?trace=1 or
// when s says yes.
//
// A sampled request gets a recorder continuing the header's trace —
// wanting the decision trace only on ?trace=1 — and has its root
// span's context echoed in w's X-Omini-Trace header. Every
// eligible or sampled request gets a root span of the given phase;
// unsampled, it carries the declined decision, which Inject forwards so
// the next hop does not sample on its own. The returned context carries
// the root span and recorder; the handler writes through the returned
// Boundary.
func Enter(ctx context.Context, w http.ResponseWriter, h http.Header, q url.Values, root *Phase, s *Sampler) (context.Context, *Boundary) {
	b := &Boundary{StatusWriter: StatusWriter{ResponseWriter: w}}
	sc, err := ParseTraceHeader(h.Get(TraceHeader))
	var sampled bool
	switch {
	case err == nil && sc.Valid():
		sampled = sc.Sampled
	case q != nil:
		sampled = WantTrace(q) || s.Sample()
	}
	if !sampled && q == nil {
		return ctx, b
	}
	if sampled {
		// Allocation sampling stays off on the serving path; wall times
		// and span structure are the useful parts under traffic.
		ctx, b.rec = StartTrace(ctx, sc, false)
		// Only ?trace=1 returns the decision trace; /tracez serves
		// spans, attributes and charges.
		b.rec.decisions = WantTrace(q)
	}
	ctx, b.root = startSpan(ctx, root)
	if sampled {
		w.Header().Set(TraceHeader, b.root.spanContext().Header())
	} else {
		b.root.declined = true
	}
	return ctx, b
}

// TraceID returns the request's trace ID, zero when it is not traced.
func (b *Boundary) TraceID() TraceID { return b.rec.TraceID() }

// End ends the root span. On a sampled request it returns the finished
// trace with the fields every caller shares filled in — identity,
// status, start, duration, spans, attributes and charges — taking the
// recorder's state without copying it; the caller adds its own fields
// and Records it. It returns nil on an unsampled request.
func (b *Boundary) End() *TraceData {
	b.root.end()
	if b.rec == nil {
		return nil
	}
	spans, attrs, charges := b.rec.Finish()
	return &TraceData{
		TraceSummary: TraceSummary{
			TraceID:    b.rec.TraceID(),
			Status:     b.Status(),
			StartedAt:  b.rec.Start(),
			DurationNS: b.root.dur.Nanoseconds(),
			SpanCount:  len(spans),
		},
		Attrs:   attrs,
		Charges: charges,
		Spans:   spans,
	}
}

// appendTraceValue appends the X-Omini-Trace value ctx's decision calls
// for: the innermost traced span's context, or a declined decision
// under a fresh trace ID. ok is false when ctx carries no decision, so
// no header belongs on the request.
func appendTraceValue(ctx context.Context, b []byte) (v []byte, ok bool) {
	sp, _ := ctx.Value(spanKey{}).(*span)
	switch {
	case sp == nil:
		return b, false
	case sp.rec != nil:
		return sp.spanContext().appendHeader(b), true
	case sp.declined:
		return SpanContext{TraceID: NewTraceID()}.appendHeader(b), true
	}
	return b, false
}

// Inject sets h's X-Omini-Trace header to ctx's trace decision: the
// innermost traced span's context, or the declined decision of an
// unsampled request. Without a decision it deletes the header, so a
// client's raw header is never forwarded behind the decision's back.
func Inject(ctx context.Context, h http.Header) {
	var buf [headerLen]byte
	v, ok := appendTraceValue(ctx, buf[:0])
	setTraceValue(h, v, ok)
}

func setTraceValue(h http.Header, v []byte, ok bool) {
	if ok {
		h[TraceHeader] = []string{string(v)}
	} else {
		delete(h, TraceHeader)
	}
}

// Transport is an http.RoundTripper that stamps every request with its
// context's trace decision, as Inject does, before Base carries it
// (http.DefaultTransport when nil). It never modifies the caller's
// request: when the header must change it sends a shallow copy of the
// request with a shallow copy of its header map, and otherwise passes
// the request through untouched.
type Transport struct {
	Base http.RoundTripper
}

// RoundTrip stamps req's trace header and sends it through Base.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	var buf [headerLen]byte
	v, ok := appendTraceValue(req.Context(), buf[:0])
	have := req.Header[TraceHeader]
	if (ok && len(have) == 1 && have[0] == string(v)) || (!ok && len(have) == 0) {
		return base.RoundTrip(req)
	}
	stamped := *req
	stamped.Header = make(http.Header, len(req.Header)+1)
	maps.Copy(stamped.Header, req.Header)
	setTraceValue(stamped.Header, v, ok)
	return base.RoundTrip(&stamped)
}

// TracingClient returns a copy of c (of a zero http.Client when c is
// nil) whose requests all go through a Transport wrapping c's own
// transport. Peer clients are built with it, so no peer request leaves
// without the trace decision of its context.
func TracingClient(c *http.Client) *http.Client {
	out := &http.Client{}
	if c != nil {
		*out = *c
	}
	if _, ok := out.Transport.(*Transport); !ok {
		out.Transport = &Transport{Base: out.Transport}
	}
	return out
}
