package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"omini/internal/corpus"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// BenchmarkServeExtractHot measures one hot /extract request through the
// whole serving layer in process: body read, the middleware chain with
// its trace and access log line, the farm's rule replay, next-page
// discovery and the JSON encoding. Every corpus site is learned first,
// so each request replays a cached rule, as in a serving node's steady
// state. Allocations include building the request and recorder, but
// not net/http's answer to a deadline on a writer that cannot take one:
// the recorder takes deadlines, as a server connection's writer does.
// The sub-benchmarks trace no request, 1% of them, and every one (the
// default -trace-sample).
func BenchmarkServeExtractHot(b *testing.B) {
	for _, bc := range []struct {
		name string
		rate float64 // Config.TraceSampleRate: negative traces none
	}{{"sample=0", -1}, {"sample=0.01", 0.01}, {"sample=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			benchHot(b, New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo), TraceSampleRate: bc.rate}), "/extract")
		})
	}
}

// BenchmarkServeRecordsHot measures one hot /records request, counted
// as BenchmarkServeExtractHot counts: the same farm replay as /extract,
// then the projection under the site's record schema (learned on the
// site's first request and cached on its farm entry) and the records'
// JSON encoding. Requests are traced, as at the default -trace-sample.
func BenchmarkServeRecordsHot(b *testing.B) {
	benchHot(b, New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo)}), "/records")
}

// benchHot posts pages 0 to 3 of every corpus site to path on srv —
// page 0 teaches the farm the site's rule — and then measures b.N
// requests over the pages that answered 200.
func benchHot(b *testing.B, srv *Server, path string) {
	type hotPage struct{ target, html string }
	var pages []hotPage
	for _, spec := range corpus.AllSpecs() {
		target := path + "?site=" + url.QueryEscape(spec.Name)
		for k := 0; k < 4; k++ {
			if p := (hotPage{target, spec.Page(k).HTML}); serveRequest(srv, p.target, p.html) == http.StatusOK {
				pages = append(pages, p)
			}
		}
	}
	if len(pages) == 0 {
		b.Fatalf("no corpus page answers %s", path)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		if code := serveRequest(srv, p.target, p.html); code != http.StatusOK {
			b.Fatalf("%s: status %d", p.target, code)
		}
	}
}

// BenchmarkServeExtractLongtail measures one /extract request that
// names a site the server has never seen, through the same serving
// layer as BenchmarkServeExtractHot: every request misses the farm,
// runs full discovery (the slow path) and learns a rule. Requests are
// traced, as at the default -trace-sample.
func BenchmarkServeExtractLongtail(b *testing.B) {
	srv := New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo)})
	var pages []string
	for _, spec := range corpus.AllSpecs() {
		pages = append(pages, spec.Page(0).HTML)
	}
	targets := make([]string, b.N)
	for i := range targets {
		targets[i] = fmt.Sprintf("/extract?site=tail-%d.example", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A page discovery cannot serve answers 422; that is the cost
		// of the slow path too.
		if code := serveRequest(srv, targets[i], pages[i%len(pages)]); code != http.StatusOK && code != http.StatusUnprocessableEntity {
			b.Fatalf("%s: status %d", targets[i], code)
		}
	}
}

// serveRequest posts html to target on srv and returns the status.
func serveRequest(srv *Server, target, html string) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
	return rec.Code
}

// deadlineRecorder is a ResponseRecorder that takes read and write
// deadlines, as a server connection's writer does. On a writer without
// them, http.ResponseController answers each deadline with a freshly
// wrapped http.ErrNotSupported: allocations the server makes only
// under a recorder, so a bench that counts the server leaves them out.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error  { return nil }
func (deadlineRecorder) SetWriteDeadline(time.Time) error { return nil }
