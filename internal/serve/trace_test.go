package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"omini/internal/core"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

// traceFromHeader parses and validates the response's X-Omini-Trace
// header, returning the trace ID.
func traceFromHeader(t *testing.T, resp *http.Response) obs.TraceID {
	t.Helper()
	h := resp.Header.Get(obs.TraceHeader)
	if h == "" {
		t.Fatalf("response has no %s header", obs.TraceHeader)
	}
	sc, err := obs.ParseTraceHeader(h)
	if err != nil || !sc.Valid() {
		t.Fatalf("bad trace header %q: %v", h, err)
	}
	if !sc.Sampled {
		t.Errorf("response header %q not marked sampled", h)
	}
	return sc.TraceID
}

// getTrace fetches one trace by ID from /tracez.
func getTrace(t *testing.T, base string, id obs.TraceID) obs.TraceData {
	t.Helper()
	resp, err := http.Get(base + "/tracez?id=" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez?id=%s status = %d", id, resp.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatalf("trace detail not JSON: %v", err)
	}
	return td
}

// spanNames returns the set of span names in a trace.
func spanNames(td obs.TraceData) map[string]obs.PhaseSample {
	out := make(map[string]obs.PhaseSample, len(td.Spans))
	for _, s := range td.Spans {
		out[s.Name] = s
	}
	return out
}

func TestExtractTracedEndToEnd(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	page := sitegen.Canoe()

	// First request: rule miss, discovery — the slow path.
	resp, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	slowID := traceFromHeader(t, resp)

	td := getTrace(t, ts.URL, slowID)
	if td.Op != "/extract" || td.Site != page.Site || td.Status != http.StatusOK {
		t.Errorf("summary = %+v", td.TraceSummary)
	}
	if td.Path != "slow" {
		t.Errorf("path = %q, want slow on a rule miss", td.Path)
	}
	if td.Charges["tokens"] <= 0 || td.Charges["nodes"] <= 0 {
		t.Errorf("governor charges missing from trace: %v", td.Charges)
	}
	spans := spanNames(td)
	handler, ok := spans["handler"]
	if !ok {
		t.Fatalf("no handler root span; spans: %v", td.Spans)
	}
	if !handler.ParentSpanID.IsZero() {
		t.Errorf("locally-rooted handler span has parent %q", handler.ParentSpanID)
	}
	farmSlow, ok := spans["farm.slow"]
	if !ok {
		t.Fatalf("no farm.slow span; spans: %v", td.Spans)
	}
	if farmSlow.ParentSpanID != handler.SpanID {
		t.Errorf("farm.slow parent = %q, want handler %q", farmSlow.ParentSpanID, handler.SpanID)
	}
	for _, phase := range core.Phases {
		if _, ok := spans[phase]; !ok {
			t.Errorf("pipeline phase %q missing from span tree", phase)
		}
	}

	// Second request: cached rule — the fast path, a distinct trace.
	resp2, _ := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	fastID := traceFromHeader(t, resp2)
	if fastID == slowID {
		t.Fatal("two requests shared one trace ID")
	}
	td2 := getTrace(t, ts.URL, fastID)
	if td2.Path != "fast" {
		t.Errorf("path = %q, want fast on a rule hit", td2.Path)
	}
	if _, ok := spanNames(td2)["farm.fast"]; !ok {
		t.Errorf("no farm.fast span on the rule hit; spans: %v", td2.Spans)
	}

	// The list view carries both, newest first.
	lresp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list tracezResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("/tracez not JSON: %v", err)
	}
	if list.Capacity != obs.DefaultTraceCapacity || list.Stored != 2 || len(list.Traces) != 2 {
		t.Fatalf("list = capacity %d stored %d len %d", list.Capacity, list.Stored, len(list.Traces))
	}
	if list.Traces[0].TraceID != fastID || list.Traces[1].TraceID != slowID {
		t.Errorf("list order = %s, %s; want newest first", list.Traces[0].TraceID, list.Traces[1].TraceID)
	}
}

func TestTracezUnknownIDIs404(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	// Unknown, malformed and the zero ID.
	for _, id := range []string{strings.Repeat("ab", 16), "not-hex", strings.Repeat("ab", 15), strings.Repeat("0", 32)} {
		resp, err := http.Get(ts.URL + "/tracez?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("id %q: status = %d, want 404", id, resp.StatusCode)
		}
	}
}

func TestTraceSamplingDisabledStillHonorsExplicitAsk(t *testing.T) {
	srv := New(Config{Stats: resilience.NewStats(), TraceSampleRate: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	page := sitegen.Canoe()

	resp, _ := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	if h := resp.Header.Get(obs.TraceHeader); h != "" {
		t.Errorf("head sampling off, but response carries trace header %q", h)
	}
	if n := srv.Traces().Len(); n != 0 {
		t.Errorf("sink holds %d traces with sampling off", n)
	}

	// ?trace=1 overrides the sampler: the client asked.
	resp2, body := post(t, ts.URL+"/extract?trace=1&site="+page.Site, page.HTML)
	id := traceFromHeader(t, resp2)
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?trace=1 response lacks the inline trace")
	}
	if out.Trace.TraceID != id {
		t.Errorf("inline trace ID %s != header trace ID %s", out.Trace.TraceID, id)
	}
	if len(out.Trace.Charges) == 0 {
		t.Error("inline trace lacks governor charges")
	}
	if _, ok := srv.Traces().Get(id); !ok {
		t.Error("explicitly-asked trace missing from the sink")
	}
}

func TestInlineTraceOnlyWhenAsked(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	page := sitegen.Canoe()
	_, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Error("sampled request without ?trace=1 shipped an inline trace")
	}
}

func TestErrorBodyCarriesTraceID(t *testing.T) {
	srv := New(Config{Stats: resilience.NewStats()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// An unprocessable page fails inside extraction: 422, traced.
	resp, body := post(t, ts.URL+"/extract", "<html><body>prose only</body></html>")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	id := traceFromHeader(t, resp)
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID != id {
		t.Errorf("error body traceId = %s, want header's %s", e.TraceID, id)
	}

	// The errored trace is pinned in the sink with the failure recorded.
	td, ok := srv.Traces().Get(id)
	if !ok {
		t.Fatal("errored trace missing from the sink")
	}
	if td.Status != http.StatusUnprocessableEntity || td.Error == "" {
		t.Errorf("errored trace summary = %+v", td.TraceSummary)
	}
}

func TestUpstreamHeaderDecisionWins(t *testing.T) {
	srv := New(Config{Stats: resilience.NewStats()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	page := sitegen.Canoe()

	// A sampled upstream header: its trace ID is adopted and the local
	// handler root parents to the upstream span.
	up := obs.SpanContext{TraceID: obs.NewTraceID(), Sampled: true}
	up.SpanID[0] = 0xfe
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/extract?site="+page.Site, strings.NewReader(page.HTML))
	req.Header.Set(obs.TraceHeader, up.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if id := traceFromHeader(t, resp); id != up.TraceID {
		t.Errorf("trace ID %s, want the upstream's %s", id, up.TraceID)
	}
	td, ok := srv.Traces().Get(up.TraceID)
	if !ok {
		t.Fatal("adopted trace missing from the sink")
	}
	if h, ok := spanNames(td)["handler"]; !ok || h.ParentSpanID != up.SpanID {
		t.Errorf("handler parent = %+v, want upstream span %s", h, up.SpanID)
	}

	// An unsampled upstream header suppresses tracing even when the local
	// sampler would record: the coordinator decided for the whole request.
	down := obs.SpanContext{TraceID: obs.NewTraceID(), Sampled: false}
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/extract?site="+page.Site, strings.NewReader(page.HTML))
	req2.Header.Set(obs.TraceHeader, down.Header())
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if h := resp2.Header.Get(obs.TraceHeader); h != "" {
		t.Errorf("unsampled upstream decision ignored; response header %q", h)
	}
	if _, ok := srv.Traces().Get(down.TraceID); ok {
		t.Error("unsampled request was recorded anyway")
	}
}

func TestRequestHistogramCarriesExemplar(t *testing.T) {
	stats := resilience.NewStats()
	ts := httptest.NewServer(New(Config{Stats: stats}))
	defer ts.Close()
	page := sitegen.Canoe()
	resp, _ := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	id := traceFromHeader(t, resp)

	var sb strings.Builder
	if err := stats.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `trace_id="`+id.String()+`"`) {
		t.Errorf("no exemplar for trace %s in exposition", id)
	}
}
