package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omini/internal/resilience"
	"omini/internal/serve"
	"omini/internal/sitegen"
)

// testNode is one cluster member backed by a real extraction server.
type testNode struct {
	id string
	ts *httptest.Server
}

// newTestCluster starts n member nodes (each a full serve.Server) and a
// pure-coordinator front (Self empty, its own local server) routing
// across them. The returned stats registry is shared by the coordinator
// and its local fallback server, the way cmd/ominiserve wires it.
func newTestCluster(t *testing.T, n int, tune func(*Config)) (*Coordinator, []*testNode, *resilience.Stats) {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i)
		ts := httptest.NewServer(serve.New(serve.Config{Stats: resilience.NewStats()}))
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{id: id, ts: ts}
		peers[id] = ts.URL
	}
	stats := resilience.NewStats()
	cfg := Config{
		Peers:         peers,
		Local:         serve.New(serve.Config{Stats: stats}),
		Stats:         stats,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		NodeAttempts:  2,
		RetryBase:     time.Millisecond,
		RetryMaxDelay: 4 * time.Millisecond,
	}
	if tune != nil {
		tune(&cfg)
	}
	return New(cfg), nodes, stats
}

// postPage POSTs a page through the coordinator and decodes the node
// attribution.
func postPage(t *testing.T, c *Coordinator, site, html string) (*http.Response, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/extract?site="+site, strings.NewReader(html))
	req.Header.Set("Content-Type", "text/html")
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	resp := rec.Result()
	t.Cleanup(func() { resp.Body.Close() })
	var payload map[string]any
	dec := json.NewDecoder(resp.Body)
	_ = dec.Decode(&payload)
	return resp, payload
}

// Routing is shard-sticky: the same site always lands on the same node,
// and the serving node is recorded in both the response header and the
// JSON payload.
func TestRouteStickyShards(t *testing.T) {
	c, nodes, stats := newTestCluster(t, 3, nil)
	page := sitegen.Canoe()

	servedBy := map[string]bool{}
	for i := 0; i < 5; i++ {
		resp, payload := postPage(t, c, page.Site, page.HTML)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		node := resp.Header.Get("X-Omini-Node")
		if node == "" {
			t.Fatal("response missing X-Omini-Node")
		}
		if payload["node"] != node {
			t.Fatalf("JSON node %v != header node %q", payload["node"], node)
		}
		servedBy[node] = true
	}
	if len(servedBy) != 1 {
		t.Errorf("one site served by %d nodes %v, want shard-sticky routing", len(servedBy), servedBy)
	}
	if got := stats.Get(SeriesProxied); got != 5 {
		t.Errorf("cluster.proxied = %d, want 5", got)
	}

	// The relayed body is the owner's own payload plus exactly one
	// "node" key: the coordinator stamps, it does not re-encode.
	var owner string
	for id := range servedBy {
		owner = id
	}
	var direct map[string]any
	for _, n := range nodes {
		if n.id == owner {
			resp, err := http.Post(n.ts.URL+"/extract?site="+page.Site, "text/html", strings.NewReader(page.HTML))
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&direct)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	relayed := rec.Body.Bytes()
	if n := topLevelKeyCount(t, relayed, "node"); n != 1 {
		t.Errorf("relayed body has %d \"node\" keys, want 1: %s", n, relayed)
	}
	var got map[string]any
	if err := json.Unmarshal(relayed, &got); err != nil {
		t.Fatal(err)
	}
	if got["node"] != owner {
		t.Errorf("relayed node = %v, want %q", got["node"], owner)
	}
	delete(got, "node")
	if !reflect.DeepEqual(got, direct) {
		t.Errorf("relayed payload differs from the owner's:\n got %v\nwant %v", got, direct)
	}

	// Different sites spread across the ring.
	spread := map[string]bool{}
	for i := 0; i < 12; i++ {
		resp, _ := postPage(t, c, fmt.Sprintf("spread-%d.example", i), page.HTML)
		if resp.StatusCode == http.StatusOK {
			spread[resp.Header.Get("X-Omini-Node")] = true
		}
	}
	if len(spread) < 2 {
		t.Errorf("12 sites all landed on %d node(s); ring is not spreading shards", len(spread))
	}
}

// topLevelKeyCount counts the members named key in a JSON object body.
// Decoding into a map would fold duplicates into one.
func topLevelKeyCount(t *testing.T, body []byte, key string) int {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body is not a JSON object (%v, %v): %s", tok, err, body)
	}
	n := 0
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if k == key {
			n++
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// stampNode splices the node ID into JSON objects, keeping the serving
// node's bytes; anything else passes through untouched.
func TestStampNode(t *testing.T) {
	cases := []struct {
		name, body, id, want string
	}{
		{"empty object", `{}`, "n1", `{"node": "n1"}`},
		{"object", "{\n  \"site\": \"a\",\n  \"b\": 1\n}", "n1", "{\"node\": \"n1\",\n  \"site\": \"a\",\n  \"b\": 1\n}"},
		{"leading whitespace", " \n\t{ }", "n2", " \n\t{\"node\": \"n2\" }"},
		{"array", `[{"a":1}]`, "n1", `[{"a":1}]`},
		{"invalid JSON", `{"a":`, "n1", `{"a":`},
		{"escaped id", `{"a":1}`, "n\"1\\ (fallback)", `{"node": "n\"1\\ (fallback)","a":1}`},
	}
	for _, tc := range cases {
		got := string(stampNode([]byte(tc.body), tc.id))
		if got != tc.want {
			t.Errorf("%s: stampNode(%q) = %q, want %q", tc.name, tc.body, got, tc.want)
			continue
		}
		if got == tc.body {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(got), &obj); err != nil || obj["node"] != tc.id {
			t.Errorf("%s: stamped body decodes to %v (err %v), want node %q", tc.name, obj, err, tc.id)
		}
	}
}

// When a site's owner dies, the request fails over to the next node on
// the ring and still succeeds.
func TestRouteFailsOverWhenOwnerDies(t *testing.T) {
	c, nodes, stats := newTestCluster(t, 3, nil)
	page := sitegen.Canoe()

	resp, _ := postPage(t, c, page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d", resp.StatusCode)
	}
	owner := resp.Header.Get("X-Omini-Node")

	for _, n := range nodes {
		if n.id == owner {
			n.ts.CloseClientConnections()
			n.ts.Close()
		}
	}

	resp, _ = postPage(t, c, page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill status %d, want failover success", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Omini-Node"); got == owner {
		t.Errorf("request still served by dead node %q", got)
	}
	if got := stats.Get(SeriesFailover); got == 0 {
		t.Error("cluster.failover = 0 after a dead-owner request")
	}
}

// With every peer down the coordinator degrades to local extraction:
// the request succeeds, the fallback is counted, and /metricsz (served
// by the shared registry) exposes the count.
func TestAllPeersDownFallsBackLocal(t *testing.T) {
	c, nodes, stats := newTestCluster(t, 2, nil)
	for _, n := range nodes {
		n.ts.CloseClientConnections()
		n.ts.Close()
	}
	page := sitegen.Canoe()
	resp, payload := postPage(t, c, page.Site, page.HTML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via local fallback", resp.StatusCode)
	}
	if objs, ok := payload["objects"].([]any); !ok || len(objs) == 0 {
		t.Errorf("fallback extraction returned no objects: %v", payload["objects"])
	}
	if got := stats.Get(SeriesFallbackLocal); got != 1 {
		t.Errorf("cluster.fallback_local = %d, want 1", got)
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if body := rec.Body.String(); !strings.Contains(body, "cluster_fallback_local 1") {
		t.Errorf("/metricsz missing cluster_fallback_local 1; got:\n%s", firstLines(body, 40))
	}
}

// firstLines truncates s for readable test failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// The error matrix a client can distinguish: 429 (downstream shed,
// Retry-After preserved), 503 (all peers down AND the local fallback is
// itself over limit), 504 (routing budget exhausted). Each carries the
// structured JSON error payload.
func TestErrorMatrix(t *testing.T) {
	page := sitegen.Canoe()

	t.Run("shed propagates 429 with Retry-After", func(t *testing.T) {
		shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server at capacity","status":429}`))
		}))
		defer shedding.Close()
		stats := resilience.NewStats()
		c := New(Config{
			Peers: map[string]string{"shed": shedding.URL},
			Local: serve.New(serve.Config{Stats: resilience.NewStats()}),
			Stats: stats,
		})
		resp, payload := postPage(t, c, page.Site, page.HTML)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Errorf("Retry-After = %q, want preserved %q", got, "7")
		}
		if got := stats.Get(SeriesShedPropagated); got != 1 {
			t.Errorf("cluster.shed_propagated = %d, want 1", got)
		}
		if payload["status"] != float64(http.StatusTooManyRequests) {
			t.Errorf("error payload status = %v, want 429", payload["status"])
		}
	})

	t.Run("all peers down and local over limit is 503", func(t *testing.T) {
		dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		dead.CloseClientConnections()
		dead.Close()
		overloaded := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"server at capacity","status":429}`))
		})
		stats := resilience.NewStats()
		c := New(Config{
			Peers:         map[string]string{"gone": dead.URL},
			Local:         overloaded,
			Stats:         stats,
			NodeAttempts:  1,
			RetryBase:     time.Millisecond,
			RetryMaxDelay: time.Millisecond,
		})
		resp, _ := postPage(t, c, page.Site, page.HTML)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 (cluster saturated)", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Errorf("Retry-After = %q, want limiter's %q preserved", got, "3")
		}
		if got := stats.Get(SeriesFallbackLocal); got != 1 {
			t.Errorf("cluster.fallback_local = %d, want 1", got)
		}
	})

	t.Run("routing budget exhaustion is 504", func(t *testing.T) {
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Reading the body to its end lets net/http watch the
			// connection, so the coordinator hanging up ends r.Context().
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			w.WriteHeader(http.StatusOK)
		}))
		defer slow.Close()
		stats := resilience.NewStats()
		c := New(Config{
			Peers:        map[string]string{"slow": slow.URL},
			Local:        serve.New(serve.Config{Stats: resilience.NewStats()}),
			Stats:        stats,
			Budget:       80 * time.Millisecond,
			NodeAttempts: 1,
		})
		resp, _ := postPage(t, c, page.Site, page.HTML)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", resp.StatusCode)
		}
		if got := stats.Get(SeriesDeadline); got != 1 {
			t.Errorf("cluster.deadline = %d, want 1", got)
		}
	})

	t.Run("oversized peer answer fails over to local", func(t *testing.T) {
		limit := int64(2 * len(page.HTML))
		answer := `{"objects":["` + strings.Repeat("x", int(2*limit)) + `"]}`
		var hits atomic.Int64
		big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, answer)
		}))
		defer big.Close()
		stats := resilience.NewStats()
		c := New(Config{
			Peers:         map[string]string{"big": big.URL},
			Local:         serve.New(serve.Config{Stats: resilience.NewStats(), MaxBodyBytes: limit}),
			Stats:         stats,
			MaxBodyBytes:  limit,
			RetryBase:     time.Millisecond,
			RetryMaxDelay: time.Millisecond,
		})
		req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d, %d bytes, valid JSON %v; want 200 and valid JSON",
				rec.Code, rec.Body.Len(), json.Valid(rec.Body.Bytes()))
		}
		if got := stats.Get(SeriesFallbackLocal); got != 1 {
			t.Errorf("cluster.fallback_local = %d, want 1", got)
		}
		if got := hits.Load(); got != 1 {
			t.Errorf("oversized peer hit %d times, want 1 (no retry on that node)", got)
		}
	})
}

// A client that declares a body and never sends it is cut off by the
// routing budget: the coordinator answers 504 and counts the deadline
// instead of waiting on the connection forever. The coordinator runs
// behind a real server, so the budget can become the connection's read
// deadline.
func TestStalledBodyAnswersWithinBudget(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("a request whose body never arrived reached a peer")
	}))
	defer peer.Close()
	stats := resilience.NewStats()
	c := New(Config{
		Peers:  map[string]string{"p": peer.URL},
		Local:  serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:  stats,
		Budget: 100 * time.Millisecond,
	})
	ts := httptest.NewServer(c)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = io.WriteString(conn, "POST /extract?site=stalled.example HTTP/1.1\r\n"+
		"Host: coordinator\r\nContent-Type: text/html\r\nContent-Length: 100\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled body: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
	if got := stats.Get(SeriesDeadline); got != 1 {
		t.Errorf("cluster.deadline = %d, want 1", got)
	}
}

// The health checker ejects a node whose probes fail FailThreshold
// times and re-admits it on the first success; both transitions are
// counted and visible on /clusterz.
func TestHealthEjectionAndReadmission(t *testing.T) {
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()
	steady := httptest.NewServer(serve.New(serve.Config{Stats: resilience.NewStats()}))
	defer steady.Close()

	stats := resilience.NewStats()
	c := New(Config{
		Peers:         map[string]string{"flaky": flaky.URL, "steady": steady.URL},
		Local:         serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:         stats,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = c.Run(ctx) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	down.Store(true)
	waitFor("ejection", func() bool { return stats.Get(SeriesEjections) >= 1 })
	if healthy := clusterzHealthy(t, c); healthy["flaky"] {
		t.Error("/clusterz still reports flaky healthy after ejection")
	}

	down.Store(false)
	waitFor("re-admission", func() bool { return stats.Get(SeriesReadmissions) >= 1 })
	waitFor("probe successes", func() bool { return clusterzHealthy(t, c)["flaky"] })
	if got := stats.Get(SeriesProbeFailures); got == 0 {
		t.Error("cluster.probe_failures = 0 despite an outage")
	}
}

// clusterzHealthy decodes /clusterz into a node -> healthy map.
func clusterzHealthy(t *testing.T, c *Coordinator) map[string]bool {
	t.Helper()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/clusterz", nil))
	var out struct {
		Nodes []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /clusterz JSON: %v", err)
	}
	healthy := make(map[string]bool, len(out.Nodes))
	for _, n := range out.Nodes {
		healthy[n.ID] = n.Healthy
	}
	return healthy
}

// A forwarded request is always served locally — no proxy chains, no
// loops in symmetric deployments.
func TestForwardedRequestsServeLocally(t *testing.T) {
	c, _, stats := newTestCluster(t, 3, nil)
	page := sitegen.Canoe()
	req := httptest.NewRequest(http.MethodPost, "/extract?site="+page.Site, strings.NewReader(page.HTML))
	req.Header.Set(forwardedHeader, "n9")
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded request status %d", rec.Code)
	}
	if got := stats.Get(SeriesProxied); got != 0 {
		t.Errorf("forwarded request was proxied (%d hops); must serve locally", got)
	}
}

// TestOnReadmissionCallback: a node coming back from ejection fires the
// readmission hook — once per transition, with the node's id, after the
// ring already includes it again (so a rule-sync handler sees the new
// topology).
func TestOnReadmissionCallback(t *testing.T) {
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()

	var mu sync.Mutex
	var fired []string
	stats := resilience.NewStats()
	var c *Coordinator
	c = New(Config{
		Peers:         map[string]string{"flaky": flaky.URL},
		Local:         serve.New(serve.Config{Stats: resilience.NewStats()}),
		Stats:         stats,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		OnReadmission: func(id string) {
			mu.Lock()
			defer mu.Unlock()
			// The callback contract: the ring rebuild precedes the hook.
			if !clusterzHealthy(t, c)[id] {
				t.Errorf("OnReadmission(%s) fired before the node was healthy in /clusterz", id)
			}
			fired = append(fired, id)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = c.Run(ctx) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	down.Store(true)
	waitFor("ejection", func() bool { return stats.Get(SeriesEjections) >= 1 })
	down.Store(false)
	waitFor("readmission callback", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fired) >= 1
	})
	cancel()

	mu.Lock()
	defer mu.Unlock()
	if fired[0] != "flaky" {
		t.Fatalf("OnReadmission got %q, want flaky", fired[0])
	}
	if len(fired) != int(stats.Get(SeriesReadmissions)) {
		t.Fatalf("callback fired %d times for %d readmissions",
			len(fired), stats.Get(SeriesReadmissions))
	}
}
