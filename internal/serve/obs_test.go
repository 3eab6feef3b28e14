package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

// syncBuffer is a goroutine-safe log sink: the access log is written by the
// server goroutine after the client already has its response, so the test
// must synchronize and wait for the line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// waitLine polls until the sink holds at least one full line.
func (b *syncBuffer) waitLine(t *testing.T) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if data := b.bytes(); bytes.ContainsRune(data, '\n') {
			return data
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no log line arrived")
	return nil
}

// TestMetricszEndpoint proves /metricsz exposes the full pipeline: after
// one extraction, every phase's latency histogram and the serve counters
// appear in Prometheus text form, and the farm holds the one learned rule.
func TestMetricszEndpoint(t *testing.T) {
	stats := resilience.NewStats()
	ts := httptest.NewServer(New(Config{Stats: stats}))
	defer ts.Close()

	page := sitegen.Canoe()
	post(t, ts.URL+"/extract?site="+page.Site, page.HTML)

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := readAll(t, resp)
	if body == "" {
		t.Fatal("empty exposition")
	}
	for _, phase := range pipelinePhases {
		series := `omini_phase_seconds_bucket{phase="` + phase + `",le="+Inf"} `
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	for _, want := range []string{
		"# TYPE omini_phase_seconds histogram",
		"omini_phase_seconds_quantile{",
		"serve_requests",
		"serve_inflight",
		"\nserve_cached_rules 1\n",
		"omini_request_seconds_bucket{path=\"/extract\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricszNonEmptyAtBoot: a scrape of a fresh process must already show
// the metric surface (all phase histograms at zero), so dashboards don't
// start blind.
func TestMetricszNonEmptyAtBoot(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, phase := range pipelinePhases {
		if !strings.Contains(body, `phase="`+phase+`"`) {
			t.Errorf("boot exposition missing phase %q", phase)
		}
	}
	if !strings.Contains(body, "serve_panics 0") {
		t.Error("boot exposition missing serve_panics 0")
	}
}

// TestExtractInlineTrace: ?trace=1 returns the decision trace inline, and
// its winners agree with the response's own fields; without the parameter
// no trace is attached.
func TestExtractInlineTrace(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	page := sitegen.Canoe()

	resp, body := post(t, ts.URL+"/extract?trace=1", page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out objectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if out.Trace.Separator != out.Separator || out.Trace.SubtreePath != out.SubtreePath {
		t.Errorf("trace winner (%s, %s) != response (%s, %s)",
			out.Trace.SubtreePath, out.Trace.Separator, out.SubtreePath, out.Separator)
	}
	if len(out.Trace.Phases) == 0 || len(out.Trace.SeparatorRankings) == 0 {
		t.Errorf("trace incomplete: %d phases, %d rankings",
			len(out.Trace.Phases), len(out.Trace.SeparatorRankings))
	}

	_, body = post(t, ts.URL+"/extract", page.HTML)
	var plain objectResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced request returned a trace")
	}
}

// TestPprofEndpoints: the runtime profiles answer on the operator mux.
func TestPprofEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Config{Stats: resilience.NewStats()}))
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if body == "" {
			t.Errorf("GET %s returned empty body", path)
		}
	}
}

// TestPanicCountedAndStackLogged: a handler panic increments serve.panics
// and emits a structured log line carrying the stack trace.
func TestPanicCountedAndStackLogged(t *testing.T) {
	var buf bytes.Buffer
	stats := resilience.NewStats()
	s := New(Config{Stats: stats, Logger: obs.NewLogger(&buf, obs.LevelError)})
	h := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("pathological page")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := stats.Get("serve.panics"); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("panic log is not one JSON object: %v: %s", err, buf.String())
	}
	if line["level"] != "error" || line["msg"] != "recovered panic" {
		t.Errorf("unexpected log line: %v", line)
	}
	if p, _ := line["panic"].(string); !strings.Contains(p, "pathological page") {
		t.Errorf("log panic field = %v", line["panic"])
	}
	if stack, _ := line["stack"].(string); !strings.Contains(stack, "goroutine") {
		t.Errorf("log stack field does not look like a stack: %.80v", line["stack"])
	}
}

// TestAccessLogCarriesDecisionSummary: each extraction request emits one
// structured access-log line naming what was extracted and why.
func TestAccessLogCarriesDecisionSummary(t *testing.T) {
	buf := &syncBuffer{}
	ts := httptest.NewServer(New(Config{
		Stats:  resilience.NewStats(),
		Logger: obs.NewLogger(buf, obs.LevelInfo),
	}))
	defer ts.Close()
	page := sitegen.Canoe()
	post(t, ts.URL+"/extract?site="+page.Site, page.HTML)

	data := buf.waitLine(t)
	var line map[string]any
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatalf("access log is not one JSON object: %v: %s", err, data)
	}
	if line["msg"] != "request" || line["method"] != "POST" || line["path"] != "/extract" {
		t.Fatalf("unexpected access line: %v", line)
	}
	if line["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", line["status"])
	}
	for _, key := range []string{"site", "subtree", "separator", "objects", "durMs"} {
		if _, ok := line[key]; !ok {
			t.Errorf("access line missing %q: %v", key, line)
		}
	}
	if line["separator"] != "table" {
		t.Errorf("separator = %v, want table", line["separator"])
	}
}
