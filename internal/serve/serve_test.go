package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// withTimeout serves next behind the server's own trace boundary,
// withObs, which derives the request deadline: the timeout tests drive
// a handler of their own through the middleware the server runs.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return s.withObs(next)
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/html", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var buf strings.Builder
	if _, err := buf.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestExtractEndpoint(t *testing.T) {
	ts := newTestServer(t)
	page := sitegen.Canoe()
	resp, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Separator != "table" || len(out.Objects) != page.Truth.ObjectCount {
		t.Errorf("separator=%q objects=%d", out.Separator, len(out.Objects))
	}
	if out.FromRule {
		t.Error("first extraction claimed the rule path")
	}
	if out.Confidence <= 0.5 {
		t.Errorf("confidence = %v", out.Confidence)
	}

	// Second request for the same site takes the cached-rule path.
	resp2, body2 := post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	var out2 objectResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.FromRule {
		t.Error("second extraction did not use the cached rule")
	}
	if len(out2.Objects) != len(out.Objects) {
		t.Errorf("rule path objects = %d, discovery = %d", len(out2.Objects), len(out.Objects))
	}
}

func TestExtractStaleRuleRelearns(t *testing.T) {
	ts := newTestServer(t)
	// Learn a rule from the canoe page under site X...
	canoe := sitegen.Canoe()
	if resp, _ := post(t, ts.URL+"/extract?site=changing.example", canoe.HTML); resp.StatusCode != http.StatusOK {
		t.Fatal("initial extraction failed")
	}
	// ...then serve a structurally different page for the same site.
	loc := sitegen.LOC()
	resp, body := post(t, ts.URL+"/extract?site=changing.example", loc.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.FromRule {
		t.Error("stale rule was not rediscovered")
	}
	if len(out.Objects) != loc.Truth.ObjectCount {
		t.Errorf("objects = %d, want %d", len(out.Objects), loc.Truth.ObjectCount)
	}
}

func TestRecordsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	page := sitegen.Canoe()
	resp, body := post(t, ts.URL+"/records?site="+page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out recordResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != page.Truth.ObjectCount {
		t.Fatalf("records = %d, want %d", len(out.Records), page.Truth.ObjectCount)
	}
	for i, rec := range out.Records {
		if rec["title"] != page.Truth.ObjectTitles[i] {
			t.Errorf("record %d title = %q", i, rec["title"])
		}
	}
}

// TestRecordsReusesFarmRule: /records serves through the same farm
// entry /extract learned. On the rule hit it runs exactly one pipeline
// pass (a replay, no discovery) under the request's trace, and learning
// the record schema neither relearns nor re-versions the rule.
func TestRecordsReusesFarmRule(t *testing.T) {
	stats := resilience.NewStats()
	ts := httptest.NewServer(New(Config{Stats: stats}))
	defer ts.Close()
	page := sitegen.Canoe()
	if resp, body := post(t, ts.URL+"/extract?site="+page.Site, page.HTML); resp.StatusCode != http.StatusOK {
		t.Fatalf("extract: status = %d: %s", resp.StatusCode, body)
	}
	discoveries := stats.Get(core.SeriesExtractions)
	replays := stats.Get(core.SeriesRuleExtractions)

	resp, body := post(t, ts.URL+"/records?site="+page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("records: status = %d: %s", resp.StatusCode, body)
	}
	var out recordResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != page.Truth.ObjectCount {
		t.Fatalf("records = %d, want %d", len(out.Records), page.Truth.ObjectCount)
	}
	if got := stats.Get(core.SeriesRuleExtractions) - replays; got != 1 {
		t.Errorf("records ran %d rule replays, want 1", got)
	}
	if got := stats.Get(core.SeriesExtractions) - discoveries; got != 0 {
		t.Errorf("records ran %d discoveries, want 0", got)
	}
	if got := stats.Get(farm.SeriesLearns); got != 1 {
		t.Errorf("farm.learns = %d, want 1", got)
	}

	rresp, err := http.Get(ts.URL + "/rulesz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var rz ruleszResponse
	if err := json.NewDecoder(rresp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if len(rz.Sites) != 1 || rz.Sites[0].Version != 1 {
		t.Errorf("/rulesz sites = %+v, want one rule at version 1", rz.Sites)
	}

	// A rule replay runs every pipeline phase but separator discovery.
	spans := spanNames(getTrace(t, ts.URL, traceFromHeader(t, resp)))
	for _, name := range []string{"handler", "farm.fast", "tokenize", "tidy", "build", "subtree", "extract"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("records trace missing span %q", name)
		}
	}
}

func TestRecordsRequiresSite(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/records", sitegen.Canoe().HTML)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestExtractRejectsEmptyAndHuge(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 64}))
	defer ts.Close()
	if resp, _ := post(t, ts.URL+"/extract", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/extract", strings.Repeat("x", 200)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("huge body status = %d", resp.StatusCode)
	}
}

func TestExtractUnprocessablePage(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/extract", "<html><body>prose only</body></html>")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", resp.StatusCode)
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	page := sitegen.LOC()
	post(t, ts.URL+"/extract?site="+page.Site, page.HTML)
	resp, err := http.Get(ts.URL + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	if !strings.Contains(body, page.Site) {
		t.Errorf("rules dump missing site: %s", body)
	}
}

func TestExtractReportsNextPage(t *testing.T) {
	ts := newTestServer(t)
	spec := sitegen.SiteSpec{
		Name: "paged.example", Domain: sitegen.DomainSearch,
		LayoutName: "para-div",
		Noise:      sitegen.NoiseSpec{InlineHeader: true, InlineFooter: true},
		MinItems:   6, MaxItems: 10,
	}
	page := spec.Page(0)
	resp, body := post(t, ts.URL+"/extract?site="+spec.Name, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.NextPage != "/next" {
		t.Errorf("nextPage = %q, want /next", out.NextPage)
	}
}

// decodeError parses the structured JSON error payload and checks its
// status field matches the response code.
func decodeError(t *testing.T, resp *http.Response, body []byte) errorResponse {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, body)
	}
	if e.Status != resp.StatusCode {
		t.Errorf("payload status = %d, response status = %d", e.Status, resp.StatusCode)
	}
	if e.Error == "" {
		t.Error("error payload has empty message")
	}
	return e
}

func TestErrorPathsReturnStructuredJSON(t *testing.T) {
	big := httptest.NewServer(New(Config{MaxBodyBytes: 64, Stats: resilience.NewStats()}))
	defer big.Close()
	ts := newTestServer(t)

	t.Run("oversized body 413", func(t *testing.T) {
		resp, body := post(t, big.URL+"/extract", strings.Repeat("x", 200))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
		decodeError(t, resp, body)
	})
	t.Run("empty body 400", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/extract", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		decodeError(t, resp, body)
	})
	t.Run("missing site on records 400", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/records", sitegen.Canoe().HTML)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		e := decodeError(t, resp, body)
		if !strings.Contains(e.Error, "site") {
			t.Errorf("message does not mention site: %q", e.Error)
		}
	})
	t.Run("unparseable HTML 422", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/extract", "\x00\x01\x02 not html at all \xff\xfe")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		decodeError(t, resp, body)
	})
	t.Run("wrapper relearn failure 422", func(t *testing.T) {
		// Prose-only page: wrapper learning finds no objects, so /records
		// fails with a structured error rather than a crash or empty 200.
		resp, body := post(t, ts.URL+"/records?site=prose.example",
			"<html><body><p>just one paragraph of prose</p></body></html>")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		decodeError(t, resp, body)
	})
}

func TestRecoveryMiddlewareReturnsJSON500(t *testing.T) {
	stats := resilience.NewStats()
	s := New(Config{Stats: stats})
	h := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("pathological page")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("panic response not JSON: %v: %s", err, rec.Body.String())
	}
	if !strings.Contains(e.Error, "pathological page") {
		t.Errorf("error = %q", e.Error)
	}
	if stats.Get("serve.panics") != 1 {
		t.Errorf("serve.panics = %d, want 1", stats.Get("serve.panics"))
	}
}

func TestLoadSheddingPastInFlightCap(t *testing.T) {
	stats := resilience.NewStats()
	s := New(Config{MaxInFlight: 1, RetryAfter: 2 * time.Second, Stats: stats})
	release := make(chan struct{})
	started := make(chan struct{})
	h := s.withLimit(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
	}()
	<-started

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("shed response not JSON: %v", err)
	}
	if stats.Get("serve.shed") != 1 {
		t.Errorf("serve.shed = %d, want 1", stats.Get("serve.shed"))
	}

	close(release)
	wg.Wait()
}

func TestRequestTimeoutReturns503(t *testing.T) {
	s := New(Config{RequestTimeout: 20 * time.Millisecond, Stats: resilience.NewStats()})
	h := s.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("timeout response not JSON: %v: %s", err, rec.Body.String())
	}
}

func TestHealthzBypassesLoadShedding(t *testing.T) {
	// A fully saturated server must still answer its operators.
	s := New(Config{MaxInFlight: 1, Stats: resilience.NewStats()})
	if !s.limiter.TryAcquire() {
		t.Fatal("could not saturate limiter")
	}
	defer s.limiter.Release()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz under load = %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("metricsz under load = %d, want 200", rec.Code)
	}
}

func TestRecordsRelearnOnDrift(t *testing.T) {
	ts := newTestServer(t)
	// Train the wrapper on a table-layout page...
	canoe := sitegen.Canoe()
	if resp, _ := post(t, ts.URL+"/records?site=drift.example", canoe.HTML); resp.StatusCode != http.StatusOK {
		t.Fatal("training request failed")
	}
	// ...then serve a redesigned (hr-record) page for the same site. The
	// drift check must relearn instead of mis-projecting.
	loc := sitegen.LOC()
	resp, body := post(t, ts.URL+"/records?site=drift.example", loc.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out recordResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != loc.Truth.ObjectCount {
		t.Fatalf("records = %d, want %d after relearn", len(out.Records), loc.Truth.ObjectCount)
	}
	if out.Records[0]["title"] == "" {
		t.Error("relearned wrapper produced empty titles")
	}
}

func TestHTTPErrorMapsGovernorFailures(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"input", fmt.Errorf("core: tokenize: %w", &govern.ErrLimitExceeded{Kind: govern.KindInput, Limit: 10, Actual: 20}), http.StatusRequestEntityTooLarge},
		{"depth", fmt.Errorf("core: tidy: %w", &govern.ErrLimitExceeded{Kind: govern.KindDepth, Limit: 10, Actual: 20}), http.StatusUnprocessableEntity},
		{"tokens", &govern.ErrLimitExceeded{Kind: govern.KindTokens, Limit: 10, Actual: 20}, http.StatusUnprocessableEntity},
		{"deadline", fmt.Errorf("core: subtree: %w", govern.ErrDeadline), http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		httpError(context.Background(), rec, c.err)
		if rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, rec.Code, c.want)
		}
	}
}

func TestExtractGovernedLimits(t *testing.T) {
	// A service configured with tight limits turns pathological pages
	// into client errors instead of burning worker time.
	srv := New(Config{Limits: core.Limits{MaxTreeDepth: 16, MaxInputBytes: 4096}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	deep := strings.Repeat("<div>", 64) + "bottom"
	resp, body := post(t, ts.URL+"/extract", deep)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deep page: status = %d, want 422: %s", resp.StatusCode, body)
	}

	big := "<html><body>" + strings.Repeat("<p>hello world</p>", 400) + "</body></html>"
	for _, path := range []string{"/extract", "/records?site=big.example"} {
		resp, body = post(t, ts.URL+path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("big page on %s: status = %d, want 413: %s", path, resp.StatusCode, body)
		}
	}
}
