package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"omini/internal/core"
	"omini/internal/resilience"
	"omini/internal/serve"
	"omini/internal/sitegen"
)

// TestExtractBatchCancellation holds the cluster batch to the batch
// contract. Cancelled before it starts, every page reports
// core.ErrUndispatched. Cancelled while its first page is routed to a
// node, that page reports the cancellation and every later page is
// undispatched. Either way every page wraps context.Canceled, and the
// results stay in input order.
func TestExtractBatchCancellation(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	// The one node takes the first page and holds it until the test
	// ends, so the cancellation provably lands mid-flight.
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		<-release
	}))
	defer node.Close()
	defer close(release)
	stats := resilience.NewStats()
	c := New(Config{
		Peers: map[string]string{"n0": node.URL},
		Local: serve.New(serve.Config{Stats: stats}),
		Stats: stats,
	})
	page := sitegen.LOC()
	reqs := make([]core.BatchRequest, 8)
	for i := range reqs {
		reqs[i] = core.BatchRequest{Site: string(rune('a'+i)) + ".example", HTML: page.HTML}
	}
	check := func(name string, results []BatchResult, wantUndispatched int) {
		t.Helper()
		if len(results) != len(reqs) {
			t.Fatalf("%s: results = %d, want %d", name, len(results), len(reqs))
		}
		undispatched := 0
		for i, r := range results {
			if r.Site != reqs[i].Site {
				t.Errorf("%s: result %d: site %q, want %q (input order broken)", name, i, r.Site, reqs[i].Site)
			}
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s: result %d: err = %v, want context.Canceled", name, i, r.Err)
			}
			if errors.Is(r.Err, core.ErrUndispatched) {
				undispatched++
			}
		}
		if undispatched != wantUndispatched {
			t.Errorf("%s: undispatched = %d, want %d", name, undispatched, wantUndispatched)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check("cancelled", c.ExtractBatch(ctx, reqs, BatchOptions{Workers: 2}), len(reqs))

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	resc := make(chan []BatchResult, 1)
	go func() { resc <- c.ExtractBatch(ctx, reqs, BatchOptions{Workers: 1}) }()
	<-started // page 0 is at the node now
	cancel()
	results := <-resc
	check("mid-flight", results, len(reqs)-1)
	if errors.Is(results[0].Err, core.ErrUndispatched) {
		t.Error("in-flight page reported ErrUndispatched; want plain cancellation")
	}
}
