package cluster

import (
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
	"omini/internal/serve"
)

// BenchmarkClusterHop measures one routed /extract request through a
// pure coordinator that proxies it over loopback to the one peer that
// owns every site: the coordinator's trace boundary, route and hop
// spans, the body buffering, the proxied HTTP round trip, the peer's
// whole serving layer on a hot (cached-rule) page, and the relay of
// its answer with the node stamped in. Every corpus site is learned on
// the peer first, so each request is a hop to a warm farm. Requests
// are traced, as at the default -trace-sample. Allocations count both
// ends of the hop, since they share the process.
func BenchmarkClusterHop(b *testing.B) {
	c, targets := warmHop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := targets[i%len(targets)]
		if code := routeRequest(c, t.target, t.html); code != http.StatusOK {
			b.Fatalf("%s: status %d", t.target, code)
		}
	}
}

// hopTarget is one hot request of BenchmarkClusterHop.
type hopTarget struct{ target, html string }

// warmHop starts one peer and a pure coordinator in front of it, and
// teaches the peer every corpus site through the coordinator: pages 0
// to 3 of each, keeping the pages that answered 200 as hot targets.
func warmHop(tb testing.TB) (*Coordinator, []hopTarget) {
	tb.Helper()
	quiet := obs.NewLogger(io.Discard, obs.LevelInfo)
	peer := httptest.NewServer(serve.New(serve.Config{Stats: resilience.NewStats(), Logger: quiet}))
	tb.Cleanup(peer.Close)
	stats := resilience.NewStats()
	c := New(Config{
		Peers:  map[string]string{"n0": peer.URL},
		Local:  serve.New(serve.Config{Stats: stats, Logger: quiet}),
		Stats:  stats,
		Logger: quiet,
	})
	var targets []hopTarget
	for _, spec := range corpus.AllSpecs() {
		target := "/extract?site=" + url.QueryEscape(spec.Name)
		for k := 0; k < 4; k++ {
			if t := (hopTarget{target, spec.Page(k).HTML}); routeRequest(c, t.target, t.html) == http.StatusOK {
				targets = append(targets, t)
			}
		}
	}
	if len(targets) == 0 {
		tb.Fatal("no corpus page answers through the hop")
	}
	return c, targets
}

// routeRequest posts html to target through c and returns the status.
func routeRequest(c *Coordinator, target, html string) int {
	rec := httptest.NewRecorder()
	c.ServeHTTP(deadlineRecorder{rec}, httptest.NewRequest(http.MethodPost, target, strings.NewReader(html)))
	return rec.Code
}

// deadlineRecorder is a ResponseRecorder that takes read and write
// deadlines, as a server connection's writer does, so the coordinator's
// body read sets its deadline without net/http's ErrNotSupported.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error  { return nil }
func (deadlineRecorder) SetWriteDeadline(time.Time) error { return nil }
