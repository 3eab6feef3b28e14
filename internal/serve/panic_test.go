package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/govern"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// panicHeuristic stands in for a pipeline stage with a latent crash bug.
type panicHeuristic struct{}

func (panicHeuristic) Name() string { return "panic" }
func (panicHeuristic) Rank(*tagtree.Node, *govern.Guard) ([]subtree.Ranked, error) {
	panic("pathological page")
}

// TestPanicThroughChainIsCountedLoggedAndTraced drives a pipeline panic
// through the server's whole middleware chain. Recovery sits inside the
// trace boundary, so the panic is a 500 like any other: counted as a
// request and an error, logged on the access log, and recorded as an
// errored trace under the ID the response names.
func TestPanicThroughChainIsCountedLoggedAndTraced(t *testing.T) {
	var logs bytes.Buffer
	stats := resilience.NewStats()
	s := New(Config{Stats: stats, Logger: obs.NewLogger(&logs, obs.LevelInfo)})
	fm, err := farm.New(farm.Config{
		Extractor: core.New(core.Options{Subtree: panicHeuristic{}}),
		Stats:     stats,
		Logger:    s.log,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.farm = fm
	page := sitegen.Canoe()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("panic response not JSON: %v: %s", err, rec.Body.String())
	}
	if e.TraceID.IsZero() {
		t.Fatal("panic response names no trace")
	}
	sc, err := obs.ParseTraceHeader(rec.Header().Get(obs.TraceHeader))
	if err != nil || sc.TraceID != e.TraceID {
		t.Fatalf("response header %q does not name the body's trace %s", rec.Header().Get(obs.TraceHeader), e.TraceID)
	}

	for name, want := range map[string]int64{"serve.panics": 1, "serve.requests": 1, "serve.errors": 1, "trace.stored": 1} {
		if got := stats.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	var access map[string]any
	sawPanicLine := false
	lines := bufio.NewScanner(&logs)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		var line map[string]any
		if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
			t.Fatalf("log line is not JSON: %v: %s", err, lines.Bytes())
		}
		switch line["msg"] {
		case "request":
			access = line
		case "recovered panic":
			sawPanicLine = true
			if line["trace"] != e.TraceID.String() {
				t.Errorf("panic log trace = %v, want %s", line["trace"], e.TraceID)
			}
		}
	}
	if !sawPanicLine {
		t.Error("no recovered-panic log line")
	}
	if access == nil {
		t.Fatalf("no access-log line for the panicked request:\n%s", logs.String())
	}
	if access["status"] != float64(http.StatusInternalServerError) || access["trace"] != e.TraceID.String() {
		t.Errorf("access line = %v, want status 500 and trace %s", access, e.TraceID)
	}
	if msg, _ := access["err"].(string); !strings.Contains(msg, "pathological page") {
		t.Errorf("access line err = %v", access["err"])
	}

	td, ok := s.Traces().Get(e.TraceID)
	if !ok {
		t.Fatalf("sink has no trace %s", e.TraceID)
	}
	if td.Status != http.StatusInternalServerError || !strings.Contains(td.Error, "pathological page") || td.Site != page.Site {
		t.Errorf("trace summary = %+v, want an errored 500 for %s", td.TraceSummary, page.Site)
	}
	if _, ok := spanNames(td)["handler"]; !ok {
		t.Errorf("trace lacks the handler root span: %+v", td.Spans)
	}

	// /tracez answers for the ID the client was given.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez?id="+e.TraceID.String(), nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/tracez?id=%s = %d, want 200", e.TraceID, rec.Code)
	}
}
