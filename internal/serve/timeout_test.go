package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

// wantTimeoutBody is the request timeout's 503 body, byte for byte.
const wantTimeoutBody = `{"error":"request timed out","status":503}`

// bigPage is a product table large enough that discovery on it takes
// many milliseconds.
func bigPage(rows int) string {
	var b strings.Builder
	b.WriteString("<html><body><h1>Catalog</h1><table>")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "<tr><td><b>Item %d</b></td><td>$%d.99</td><td><a href=\"/p/%d\">details</a></td></tr>", i, i%97, i)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

func quietServer(cfg Config) *Server {
	cfg.Stats = resilience.NewStats()
	cfg.Logger = obs.NewLogger(io.Discard, obs.LevelInfo)
	return New(cfg)
}

// extractOnce serves one /extract of html, returning the recorder and
// how long the request took.
func extractOnce(s *Server, html string) (*httptest.ResponseRecorder, time.Duration) {
	rec := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract?site=big.example", strings.NewReader(html)))
	return rec, time.Since(start)
}

// pipelineBudget returns a quarter of what a first /extract of html
// takes without any deadline: a budget that runs out inside the
// pipeline, wherever the test runs.
func pipelineBudget(t *testing.T, html string) time.Duration {
	t.Helper()
	rec, took := extractOnce(quietServer(Config{RequestTimeout: -1}), html)
	if rec.Code != http.StatusOK {
		t.Fatalf("untimed extraction: status %d: %s", rec.Code, rec.Body)
	}
	return took / 4
}

func TestRequestTimeoutInsidePipelineIs503(t *testing.T) {
	html := bigPage(20000)
	budget := pipelineBudget(t, html)
	rec, _ := extractOnce(quietServer(Config{RequestTimeout: budget}), html)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != wantTimeoutBody {
		t.Errorf("body = %q, want %q", got, wantTimeoutBody)
	}
}

func TestPageDeadlineStillAnswers504(t *testing.T) {
	html := bigPage(20000)
	budget := pipelineBudget(t, html)
	rec, _ := extractOnce(quietServer(Config{Limits: core.Limits{Deadline: budget}}), html)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), "request timed out") {
		t.Errorf("page deadline answered with the request timeout's body: %s", rec.Body)
	}
}

// TestTrickledBodyCutOffByReadDeadline: a client that sends its body a
// byte at a time gets the 503 when the request timeout passes, not
// when it stops sending.
func TestTrickledBodyCutOffByReadDeadline(t *testing.T) {
	ts := httptest.NewServer(quietServer(Config{RequestTimeout: 150 * time.Millisecond}))
	defer ts.Close()
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer pw.Close()
		for i := 0; i < 500; i++ { // 10 s of body
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := pw.Write([]byte("<")); err != nil {
				return
			}
		}
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/extract?site=slow.example", pr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("answered after %v; the read deadline should cut the body off at 150ms", took)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != wantTimeoutBody {
		t.Errorf("got %d %q, want 503 %q", resp.StatusCode, body, wantTimeoutBody)
	}
}

// postReused POSTs body to url through client, reporting whether the
// request went out on a kept-alive connection.
func postReused(t *testing.T, client *http.Client, url, body string) (status int, out string, reused bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	}))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), reused
}

// TestTimedOutRequestLeavesConnectionUsable: a request whose timeout
// expires inside the pipeline answers the 503, and the next request on
// the same kept-alive connection is served normally — the timeout must
// not outlive its request on the connection.
func TestTimedOutRequestLeavesConnectionUsable(t *testing.T) {
	html := bigPage(20000)
	budget := pipelineBudget(t, html)
	ts := httptest.NewServer(quietServer(Config{RequestTimeout: budget}))
	defer ts.Close()
	client := ts.Client()

	status, body, _ := postReused(t, client, ts.URL+"/extract?site=big.example", html)
	if status != http.StatusServiceUnavailable || body != wantTimeoutBody {
		t.Fatalf("timed-out request: got %d %q, want 503 %q", status, body, wantTimeoutBody)
	}
	// Past the first request's deadline, so a read deadline it left on
	// the connection would already have fired.
	time.Sleep(budget)
	page := sitegen.Canoe()
	status, body, reused := postReused(t, client, ts.URL+"/extract?site="+page.Site, page.HTML)
	if status != http.StatusOK {
		t.Fatalf("next request on the connection: status %d: %s", status, body)
	}
	if !reused {
		t.Error("next request did not reuse the kept-alive connection")
	}
}

// TestSlowBodilessRequestLeavesConnectionUsable: a request without a
// body that runs past its timeout leaves the connection's context
// intact for the next request on it.
func TestSlowBodilessRequestLeavesConnectionUsable(t *testing.T) {
	s := quietServer(Config{RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-r.Context().Done()
			time.Sleep(50 * time.Millisecond)
			return
		}
		if err := r.Context().Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})))
	defer ts.Close()
	client := ts.Client()

	status, body, _ := postReused(t, client, ts.URL+"/slow", "")
	if status != http.StatusServiceUnavailable || body != wantTimeoutBody {
		t.Fatalf("slow request: got %d %q, want 503 %q", status, body, wantTimeoutBody)
	}
	status, body, reused := postReused(t, client, ts.URL+"/fast", "")
	if status != http.StatusOK {
		t.Fatalf("next request on the connection: status %d: %s", status, body)
	}
	if !reused {
		t.Error("next request did not reuse the kept-alive connection")
	}
}

// TestTimeoutStartsNoGoroutine: the request deadline runs the handler
// on the request's own goroutine.
func TestTimeoutStartsNoGoroutine(t *testing.T) {
	s := quietServer(Config{RequestTimeout: time.Second})
	var inside int
	h := s.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inside = runtime.NumGoroutine()
	}))
	// Other tests' goroutines may come and go; one clean sample is
	// enough, and a goroutine per request shows in every sample.
	extra := 1 << 30
	for i := 0; i < 20 && extra > 0; i++ {
		before := runtime.NumGoroutine()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader("x")))
		extra = min(extra, inside-before)
	}
	if extra > 0 {
		t.Errorf("a request under the timeout runs %d more goroutines", extra)
	}
}
