package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/serve"
	"omini/internal/sitegen"
)

// TestClusterTracePropagation proves the tentpole end to end: one trace
// ID minted at the coordinator spans the cluster hop — the coordinator's
// sink holds the route/hop half, the owner's sink holds the handler/farm
// half under the same ID, and the owner's handler span parents to the
// coordinator's hop span across the process boundary.
func TestClusterTracePropagation(t *testing.T) {
	const n = 3
	servers := make(map[string]*serve.Server, n)
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		srv := serve.New(serve.Config{Stats: resilience.NewStats()})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		servers[id] = srv
		peers[id] = ts.URL
	}
	coordTraces := obs.NewTraceSink(0)
	c := New(Config{
		Peers:         peers,
		Local:         serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:         resilience.NewStats(),
		Traces:        coordTraces,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	page := sitegen.Canoe()

	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	sc, err := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if err != nil || !sc.Valid() {
		t.Fatalf("bad response trace header %q: %v", resp.Header.Get(obs.TraceHeader), err)
	}
	tid := sc.TraceID
	owner := resp.Header.Get("X-Omini-Node")
	ownerSrv := servers[owner]
	if ownerSrv == nil {
		t.Fatalf("unknown serving node %q", owner)
	}

	// The coordinator half: a route root and a hop child.
	coordTD, ok := coordTraces.Get(tid)
	if !ok {
		t.Fatalf("coordinator sink has no trace %s", tid)
	}
	if coordTD.Op != "route" || coordTD.Site != page.Site || coordTD.Status != http.StatusOK {
		t.Errorf("coordinator summary = %+v", coordTD.TraceSummary)
	}
	var route, hop obs.PhaseSample
	for _, s := range coordTD.Spans {
		switch s.Name {
		case "route":
			route = s
		case "hop":
			hop = s
		}
	}
	if route.SpanID.IsZero() || hop.SpanID.IsZero() {
		t.Fatalf("coordinator spans incomplete: %+v", coordTD.Spans)
	}
	if !route.ParentSpanID.IsZero() {
		t.Errorf("route root has parent %q, want none", route.ParentSpanID)
	}
	if hop.ParentSpanID != route.SpanID {
		t.Errorf("hop parent = %q, want route %q", hop.ParentSpanID, route.SpanID)
	}

	// The owner half: same trace ID, handler span parented to the
	// coordinator's hop span — the cross-node edge of the span tree.
	ownerTD, ok := ownerSrv.Traces().Get(tid)
	if !ok {
		t.Fatalf("owner %s sink has no trace %s", owner, tid)
	}
	var handler obs.PhaseSample
	for _, s := range ownerTD.Spans {
		if s.Name == "handler" {
			handler = s
		}
	}
	if handler.SpanID.IsZero() {
		t.Fatalf("owner trace has no handler span: %+v", ownerTD.Spans)
	}
	if handler.ParentSpanID != hop.SpanID {
		t.Errorf("owner handler parent = %q, want coordinator hop %q", handler.ParentSpanID, hop.SpanID)
	}
	if ownerTD.Path == "" {
		t.Error("owner trace lacks the farm path attribute")
	}

	// No other node recorded anything for this trace.
	for id, srv := range servers {
		if id == owner {
			continue
		}
		if _, ok := srv.Traces().Get(tid); ok {
			t.Errorf("non-owner %s recorded trace %s", id, tid)
		}
	}
}

// TestCoordinatorDeclineSuppressesOwnerSampling pins the one-decision
// policy: when the coordinator declines to sample, the forwarded header
// carries that decision and the owner — whose own sampler would record
// everything — must not record a trace.
func TestCoordinatorDeclineSuppressesOwnerSampling(t *testing.T) {
	srv := serve.New(serve.Config{Stats: resilience.NewStats()}) // samples all by default
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := New(Config{
		Peers:           map[string]string{"n0": ts.URL},
		Local:           serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:           resilience.NewStats(),
		TraceSampleRate: -1,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
	})
	page := sitegen.Canoe()

	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if n := srv.Traces().Len(); n != 0 {
		t.Errorf("owner recorded %d traces despite the coordinator's declined decision", n)
	}

	// ?trace=1 flips the coordinator's decision and the trace flows again.
	req2 := httptest.NewRequest(http.MethodPost, "/extract?trace=1&site="+page.Site, strings.NewReader(page.HTML))
	rec2 := httptest.NewRecorder()
	c.ServeHTTP(rec2, req2)
	resp2 := rec2.Result()
	defer resp2.Body.Close()
	sc, err := obs.ParseTraceHeader(resp2.Header.Get(obs.TraceHeader))
	if err != nil || !sc.Valid() {
		t.Fatalf("?trace=1 response header %q: %v", resp2.Header.Get(obs.TraceHeader), err)
	}
	if _, ok := srv.Traces().Get(sc.TraceID); !ok {
		t.Error("?trace=1 through the coordinator did not reach the owner's sink")
	}
}

// TestSelfServedTraceMergesBothHalves covers the cmd/ominiserve wiring:
// a node that is both coordinator and owner shares one sink, and the
// route half and handler half of a self-served request merge into a
// single trace whose outermost view is the route.
func TestSelfServedTraceMergesBothHalves(t *testing.T) {
	stats := resilience.NewStats()
	srv := serve.New(serve.Config{Stats: stats})
	c := New(Config{
		Self:          "a",
		Peers:         map[string]string{"a": "http://127.0.0.1:0"},
		Local:         srv,
		Stats:         stats,
		Traces:        srv.Traces(),
		ProbeInterval: 20 * time.Millisecond,
	})
	page := sitegen.Canoe()

	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc, err := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if err != nil || !sc.Valid() {
		t.Fatal("self-served response has no valid trace header")
	}

	td, ok := srv.Traces().Get(sc.TraceID)
	if !ok {
		t.Fatal("shared sink has no merged trace")
	}
	if td.Op != "route" {
		t.Errorf("merged Op = %q, want the route half outermost", td.Op)
	}
	var route, handler obs.PhaseSample
	for _, s := range td.Spans {
		switch s.Name {
		case "route":
			route = s
		case "handler":
			handler = s
		}
	}
	if route.SpanID.IsZero() || handler.SpanID.IsZero() {
		t.Fatalf("merged trace missing a half: %+v", td.Spans)
	}
	if handler.ParentSpanID != route.SpanID {
		t.Errorf("handler parent = %q, want route %q", handler.ParentSpanID, route.SpanID)
	}
	if srv.Traces().Len() != 1 {
		t.Errorf("sink holds %d traces, want the two halves merged into 1", srv.Traces().Len())
	}
}

// TestHealthProbesCarryNoTraceHeader: probes share the coordinator's
// stamping client, but their context carries no trace, so no /healthz
// or /readyz request fabricates a trace root on the peer — while a
// routed request through the same client does carry its hop's context.
func TestHealthProbesCarryNoTraceHeader(t *testing.T) {
	srv := serve.New(serve.Config{Stats: resilience.NewStats()})
	var mu sync.Mutex
	var probes, stamped int
	var hops []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		switch r.URL.Path {
		case "/healthz", "/readyz":
			probes++
			if _, ok := r.Header[obs.TraceHeader]; ok {
				stamped++
			}
		case "/extract":
			hops = append(hops, r.Header.Get(obs.TraceHeader))
		}
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(peer.Close)
	c := New(Config{
		Peers:         map[string]string{"n0": peer.URL},
		Local:         serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:         resilience.NewStats(),
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = c.Run(ctx) }()

	page := sitegen.Canoe()
	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	const clientHeader = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	req.Header.Set(obs.TraceHeader, clientHeader)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed request status = %d", rec.Code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := probes
		mu.Unlock()
		if n >= 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if probes < 6 {
		t.Fatalf("peer saw %d probe requests, want at least 6", probes)
	}
	if stamped != 0 {
		t.Errorf("%d of %d probe requests carried %s", stamped, probes, obs.TraceHeader)
	}
	if len(hops) != 1 {
		t.Fatalf("peer saw %d hops, want 1", len(hops))
	}
	if sc, err := obs.ParseTraceHeader(hops[0]); err != nil || !sc.Sampled || hops[0] == clientHeader {
		t.Errorf("hop header %q, want the coordinator's sampled hop context", hops[0])
	}
}
