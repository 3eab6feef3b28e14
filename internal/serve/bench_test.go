package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"omini/internal/corpus"
	"omini/internal/obs"
	"omini/internal/resilience"
)

// BenchmarkServeExtractHot measures one hot /extract request through the
// whole serving layer in process: body read, the middleware chain with
// its trace and access log line, the farm's rule replay, next-page
// discovery and the JSON encoding. Every corpus site is learned first,
// so each request replays a cached rule, as in a serving node's steady
// state. Allocations include building the request and recorder. The
// sub-benchmarks trace no request, 1% of them, and every one (the
// default -trace-sample).
func BenchmarkServeExtractHot(b *testing.B) {
	for _, bc := range []struct {
		name string
		rate float64 // Config.TraceSampleRate: negative traces none
	}{{"sample=0", -1}, {"sample=0.01", 0.01}, {"sample=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			srv := New(Config{Stats: resilience.NewStats(), Logger: obs.NewLogger(io.Discard, obs.LevelInfo), TraceSampleRate: bc.rate})
			type hotPage struct{ target, html string }
			var pages []hotPage
			for _, spec := range corpus.AllSpecs() {
				target := "/extract?site=" + url.QueryEscape(spec.Name)
				for k := 0; k < 4; k++ {
					p := hotPage{target, spec.Page(k).HTML}
					// Page 0 teaches the farm the site's rule; a page it
					// cannot serve is left out.
					if serveExtract(srv, p.target, p.html) == http.StatusOK {
						pages = append(pages, p)
					}
				}
			}
			if len(pages) == 0 {
				b.Fatal("no corpus page extracts")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pages[i%len(pages)]
				if code := serveExtract(srv, p.target, p.html); code != http.StatusOK {
					b.Fatalf("%s: status %d", p.target, code)
				}
			}
		})
	}
}

func serveExtract(srv *Server, target, html string) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
	return rec.Code
}
