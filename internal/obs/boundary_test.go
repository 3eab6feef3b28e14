package obs

import (
	"context"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// clientHeader is a well-formed, sampled header a client might send.
const clientHeader = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

// tracedSpan returns a context whose innermost span is traced.
func tracedSpan(t *testing.T) (context.Context, *span) {
	t.Helper()
	ctx, _ := WithTraceRecorder(context.Background(), false)
	ctx, root := startSpan(ctx, phaseOuter)
	t.Cleanup(root.end)
	ctx, sp := startSpan(ctx, phaseInner)
	t.Cleanup(sp.end)
	return ctx, sp
}

// declinedSpan returns a context under the root span of a request its
// boundary declined to sample.
func declinedSpan(t *testing.T) context.Context {
	t.Helper()
	ctx, b := Enter(context.Background(), httptest.NewRecorder(), http.Header{}, url.Values{}, phaseHandler, NewSampler(-1))
	t.Cleanup(func() { b.End() })
	if !b.TraceID().IsZero() {
		t.Fatal("a -1 sampler sampled")
	}
	return ctx
}

func TestInjectStampsTracedSpanContext(t *testing.T) {
	ctx, sp := tracedSpan(t)
	h := http.Header{TraceHeader: {clientHeader}}
	Inject(ctx, h)
	if got, want := h.Get(TraceHeader), sp.spanContext().Header(); got != want {
		t.Errorf("header = %q, want the innermost span's context %q", got, want)
	}
	if len(h[TraceHeader]) != 1 {
		t.Errorf("header has %d values, want 1", len(h[TraceHeader]))
	}
}

func TestInjectStampsDeclinedDecision(t *testing.T) {
	ctx := declinedSpan(t)
	// A child span inherits the decision.
	ctx, hop := startSpan(ctx, phaseHop)
	defer hop.end()
	h := http.Header{TraceHeader: {clientHeader}}
	Inject(ctx, h)
	v := h.Get(TraceHeader)
	sc, err := ParseTraceHeader(v)
	if err != nil || !sc.Valid() || sc.Sampled || !strings.HasSuffix(v, "-00") {
		t.Errorf("header = %q (%+v, %v), want a valid declined decision ending -00", v, sc, err)
	}
}

func TestInjectWithoutDecisionStripsClientHeader(t *testing.T) {
	for name, ctx := range map[string]context.Context{
		"no span":       context.Background(),
		"untraced span": func() context.Context { c, sp := startSpan(context.Background(), phaseX); sp.end(); return c }(),
	} {
		h := http.Header{TraceHeader: {clientHeader}, "Accept": {"*/*"}}
		Inject(ctx, h)
		if _, ok := h[TraceHeader]; ok {
			t.Errorf("%s: header kept %q, want it deleted", name, h.Get(TraceHeader))
		}
		if h.Get("Accept") != "*/*" {
			t.Errorf("%s: other headers disturbed: %v", name, h)
		}
	}
}

// recordingTransport answers every request itself, remembering the
// request it was handed.
type recordingTransport struct {
	got  []*http.Request
	fail int // fail this many requests first, as a faulty link would
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.got = append(rt.got, req)
	if rt.fail > 0 {
		rt.fail--
		return nil, errors.New("injected fault")
	}
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
}

func TestTransportStampsWithoutMutatingCaller(t *testing.T) {
	traced, sp := tracedSpan(t)
	cases := []struct {
		name   string
		ctx    context.Context
		header http.Header
		want   func(string) bool
	}{
		{"traced replaces client header", traced, http.Header{TraceHeader: {clientHeader}},
			func(v string) bool { return v == sp.spanContext().Header() }},
		{"traced adds header", traced, http.Header{},
			func(v string) bool { return v == sp.spanContext().Header() }},
		{"declined", declinedSpan(t), http.Header{TraceHeader: {clientHeader}},
			func(v string) bool { sc, err := ParseTraceHeader(v); return err == nil && !sc.Sampled }},
		{"no decision strips", context.Background(), http.Header{TraceHeader: {clientHeader}},
			func(v string) bool { return v == "" }},
	}
	for _, tc := range cases {
		rt := &recordingTransport{}
		req, err := http.NewRequestWithContext(tc.ctx, http.MethodGet, "http://peer.invalid/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = tc.header
		req.Header.Set("Accept", "*/*")
		before := maps.Clone(req.Header)
		resp, err := (&Transport{Base: rt}).RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		sent := rt.got[0]
		if v := sent.Header.Get(TraceHeader); !tc.want(v) {
			t.Errorf("%s: sent header %q", tc.name, v)
		}
		if sent.Header.Get("Accept") != "*/*" || sent.URL != req.URL || sent.Context() != req.Context() {
			t.Errorf("%s: the sent request lost the caller's fields", tc.name)
		}
		if sent == req || !maps.EqualFunc(req.Header, before, func(a, b []string) bool {
			return strings.Join(a, "\x00") == strings.Join(b, "\x00")
		}) {
			t.Errorf("%s: caller's request mutated: header %v, was %v", tc.name, req.Header, before)
		}
	}
}

// lastTransport remembers the last request and answers with one
// response it owns, allocating nothing.
type lastTransport struct {
	last *http.Request
	resp http.Response
}

func (lt *lastTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	lt.last = req
	return &lt.resp, nil
}

func TestTransportPassThroughAllocatesNothing(t *testing.T) {
	traced, sp := tracedSpan(t)
	lt := &lastTransport{}
	tr := &Transport{Base: lt}
	stamped, _ := http.NewRequestWithContext(traced, http.MethodGet, "http://peer.invalid/x", nil)
	stamped.Header.Set(TraceHeader, sp.spanContext().Header())
	bare, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://peer.invalid/x", nil)
	for name, req := range map[string]*http.Request{"already stamped": stamped, "no decision, no header": bare} {
		if allocs := testing.AllocsPerRun(100, func() { _, _ = tr.RoundTrip(req) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs per round trip, want 0", name, allocs)
		}
		if lt.last != req {
			t.Errorf("%s: request was copied, want it passed through", name)
		}
	}
}

// TestTracingClientCarriesThroughCallerTransport: a client built with
// its own transport — a faulty one here — still sends every request
// through it, stamped, and the caller's client is left as it was.
func TestTracingClientCarriesThroughCallerTransport(t *testing.T) {
	rt := &recordingTransport{fail: 1}
	caller := &http.Client{Transport: rt}
	c := TracingClient(caller)
	if caller.Transport != rt {
		t.Fatal("TracingClient modified the caller's client")
	}
	if again := TracingClient(c); again.Transport != c.Transport {
		t.Error("wrapping a tracing client stacked a second Transport")
	}
	ctx, sp := tracedSpan(t)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://peer.invalid/x", nil)
	if _, err := c.Do(req); err == nil {
		t.Fatal("the faulty transport's first failure did not surface")
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("second attempt: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if len(rt.got) != 2 {
		t.Fatalf("caller's transport saw %d requests, want 2", len(rt.got))
	}
	for _, got := range rt.got {
		if got.Header.Get(TraceHeader) != sp.spanContext().Header() {
			t.Errorf("request reached the caller's transport with header %q", got.Header.Get(TraceHeader))
		}
	}
	if req.Header.Get(TraceHeader) != "" {
		t.Error("the caller's request was stamped in place")
	}
}

func TestEnterDecisionRule(t *testing.T) {
	upstream := SpanContext{TraceID: NewTraceID(), SpanID: SpanID{1}, Sampled: true}
	declined := upstream
	declined.Sampled = false
	never, always := NewSampler(-1), NewSampler(1)
	cases := []struct {
		name          string
		header        string
		q             url.Values
		s             *Sampler
		sampled, root bool
	}{
		{"sampled header wins over sampler", upstream.Header(), url.Values{}, never, true, true},
		{"declined header wins over ?trace=1", declined.Header(), url.Values{"trace": {"1"}}, always, false, true},
		{"sampled header traces an ineligible request", upstream.Header(), nil, never, true, true},
		{"?trace=1 overrides the sampler", "", url.Values{"trace": {"1"}}, never, true, true},
		{"sampler decides", "", url.Values{}, always, true, true},
		{"sampler declines", "", url.Values{}, never, false, true},
		{"malformed header falls back to the sampler", "00-zz", url.Values{}, always, true, true},
		{"ineligible without header", "", nil, always, false, false},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h := http.Header{}
		if tc.header != "" {
			h.Set(TraceHeader, tc.header)
		}
		ctx, b := Enter(context.Background(), w, h, tc.q, phaseHandler, tc.s)
		if sampled := !b.TraceID().IsZero(); sampled != tc.sampled {
			t.Errorf("%s: sampled = %v, want %v", tc.name, sampled, tc.sampled)
		}
		_, hasRoot := ctx.Value(spanKey{}).(*span)
		if hasRoot != tc.root {
			t.Errorf("%s: root span = %v, want %v", tc.name, hasRoot, tc.root)
		}
		echo := w.Header().Get(TraceHeader)
		if tc.sampled {
			sc, err := ParseTraceHeader(echo)
			if err != nil || !sc.Sampled || sc.SpanID != SpanContextFrom(ctx).SpanID {
				t.Errorf("%s: echoed header %q, want the root span's context", tc.name, echo)
			}
			if tc.header == upstream.Header() && sc.TraceID != upstream.TraceID {
				t.Errorf("%s: trace %s, want the upstream %s", tc.name, sc.TraceID, upstream.TraceID)
			}
		} else if echo != "" {
			t.Errorf("%s: unsampled request echoed %q", tc.name, echo)
		}
		if td := b.End(); (td != nil) != tc.sampled {
			t.Errorf("%s: End returned trace %v, want one only when sampled", tc.name, td)
		}
	}
}

func TestBoundaryEndFillsSharedFields(t *testing.T) {
	w := httptest.NewRecorder()
	ctx, b := Enter(context.Background(), w, http.Header{}, url.Values{"trace": {"1"}}, phaseHandler, nil)
	_, child := startSpan(ctx, phaseInner)
	child.end()
	AnnotateTrace(ctx, "path", "fast")
	TraceRecorderFrom(ctx).SetCharge("tokens", 7)
	http.Error(b, "gone", http.StatusGone)
	td := b.End()
	if td == nil {
		t.Fatal("sampled request returned no trace")
	}
	if td.TraceID != b.TraceID() || td.TraceID.IsZero() {
		t.Errorf("TraceID = %s, want %s", td.TraceID, b.TraceID())
	}
	if td.Status != http.StatusGone || w.Code != http.StatusGone {
		t.Errorf("status = %d (wire %d), want 410", td.Status, w.Code)
	}
	if td.StartedAt.IsZero() || td.DurationNS <= 0 {
		t.Errorf("start %v, duration %d", td.StartedAt, td.DurationNS)
	}
	if td.SpanCount != 2 || len(td.Spans) != 2 || td.Spans[1].Name != "handler" {
		t.Errorf("spans = %+v, want the child then the handler root", td.Spans)
	}
	if td.Attrs["path"] != "fast" || td.Charges["tokens"] != 7 {
		t.Errorf("attrs %v, charges %v", td.Attrs, td.Charges)
	}
	if td.Op != "" || td.Site != "" || td.Node != "" || td.Error != "" {
		t.Errorf("caller-specific fields filled in: %+v", td.TraceSummary)
	}
}

func TestStatusWriter(t *testing.T) {
	w := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	if w.Wrote() || w.Status() != http.StatusOK {
		t.Errorf("fresh writer: wrote %v, status %d", w.Wrote(), w.Status())
	}
	_, _ = w.Write([]byte("x"))
	w.WriteHeader(http.StatusTeapot)
	if !w.Wrote() || w.Status() != http.StatusOK {
		t.Errorf("after a body: wrote %v, status %d, want the implicit 200", w.Wrote(), w.Status())
	}
	if _, ok := w.Unwrap().(*httptest.ResponseRecorder); !ok {
		t.Error("Unwrap does not return the wrapped writer")
	}
}

func TestWantTrace(t *testing.T) {
	for v, want := range map[string]bool{"1": true, "true": true, "yes": true, "0": false, "": false, "on": false} {
		if got := WantTrace(url.Values{"trace": {v}}); got != want {
			t.Errorf("WantTrace(trace=%q) = %v, want %v", v, got, want)
		}
	}
	if WantTrace(nil) {
		t.Error("WantTrace(nil) = true")
	}
}
