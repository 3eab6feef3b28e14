package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"omini/internal/govern"
	"omini/internal/pathology"
	"omini/internal/rules"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// TestPathologicalDepthLimit proves the stack-safety property: a
// 100k-deep page fails with the typed depth error on both the discovery
// path and the cached-rule replay path — never with a stack overflow.
func TestPathologicalDepthLimit(t *testing.T) {
	page := pathology.DeepNesting(100_000)
	e := New(Options{})

	_, err := e.Extract(page)
	var lim *govern.ErrLimitExceeded
	if !errors.As(err, &lim) || lim.Kind != govern.KindDepth {
		t.Fatalf("Extract err = %v, want ErrLimitExceeded{Kind: depth}", err)
	}

	rule := rules.Rule{Site: "deep.example", SubtreePath: "html[1]", Separator: "div"}
	_, err = e.ExtractWithRule(page, rule)
	lim = nil
	if !errors.As(err, &lim) || lim.Kind != govern.KindDepth {
		t.Fatalf("ExtractWithRule err = %v, want ErrLimitExceeded{Kind: depth}", err)
	}
}

// gateHeuristic blocks the first ranked page until released, making
// "a page is in flight right now" observable to cancellation tests.
type gateHeuristic struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateHeuristic) Name() string { return "gate" }

func (g *gateHeuristic) Rank(root *tagtree.Node, guard *govern.Guard) ([]subtree.Ranked, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return subtree.Compound().Rank(root, guard)
}

// TestPathologicalBatchMidFlightCancel cancels a batch while a page is
// provably in flight and checks the contract: results stay in input
// order with sites echoed, the interrupted page reports the
// cancellation (not ErrUndispatched), and everything never handed to a
// worker reports ErrUndispatched.
func TestPathologicalBatchMidFlightCancel(t *testing.T) {
	gate := &gateHeuristic{started: make(chan struct{}), release: make(chan struct{})}
	e := New(Options{Subtree: gate})
	page := sitegen.LOC()
	reqs := make([]BatchRequest, 8)
	for i := range reqs {
		reqs[i] = BatchRequest{Site: string(rune('a'+i)) + ".example", HTML: page.HTML}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resc := make(chan []BatchResult, 1)
	go func() { resc <- e.ExtractBatch(ctx, reqs, BatchOptions{Workers: 1}) }()

	<-gate.started // request 0 is inside the pipeline now
	cancel()
	close(gate.release)
	results := <-resc

	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	undispatched := 0
	for i, r := range results {
		if r.Site != reqs[i].Site {
			t.Errorf("result %d: site %q, want %q (input order broken)", i, r.Site, reqs[i].Site)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
		if errors.Is(r.Err, ErrUndispatched) {
			undispatched++
		}
	}
	if errors.Is(results[0].Err, ErrUndispatched) {
		t.Error("in-flight page reported ErrUndispatched; want plain cancellation")
	}
	if undispatched != len(reqs)-1 {
		t.Errorf("undispatched = %d, want %d", undispatched, len(reqs)-1)
	}
}

// TestPathologicalBatchWatchdog wedges a page past its PageTimeout and
// checks the worker abandons it with a typed govern.ErrDeadline result
// while the batch itself survives.
func TestPathologicalBatchWatchdog(t *testing.T) {
	gate := &gateHeuristic{started: make(chan struct{}), release: make(chan struct{})}
	e := New(Options{Subtree: gate})
	page := sitegen.LOC()
	reqs := []BatchRequest{{Site: "stuck.example", HTML: page.HTML}}

	resc := make(chan []BatchResult, 1)
	go func() {
		resc <- e.ExtractBatch(context.Background(), reqs,
			BatchOptions{Workers: 1, PageTimeout: 30 * time.Millisecond})
	}()
	<-gate.started
	results := <-resc   // the watchdog, not the page, must end the wait
	close(gate.release) // let the abandoned goroutine exit

	if !errors.Is(results[0].Err, govern.ErrDeadline) {
		t.Fatalf("err = %v, want govern.ErrDeadline", results[0].Err)
	}
	if results[0].Site != "stuck.example" {
		t.Errorf("site = %q", results[0].Site)
	}
}

// TestPathologicalDeadlineMapsTyped drives a real (non-wedged) page into
// its per-page Deadline and checks the governor reports the typed error.
func TestPathologicalDeadlineMapsTyped(t *testing.T) {
	e := New(Options{Limits: Limits{Deadline: time.Nanosecond}})
	_, err := e.Extract(pathology.HugeTextNode(1 << 20))
	if !errors.Is(err, govern.ErrDeadline) {
		t.Fatalf("err = %v, want govern.ErrDeadline", err)
	}
}

// TestPathologicalCorpusTyped runs every generated pathological page
// through a default extractor: each must extract or fail with a typed,
// explainable error — never hang or panic.
func TestPathologicalCorpusTyped(t *testing.T) {
	e := New(Options{})
	for name, html := range pathology.Corpus() {
		name, html := name, html
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, err := e.Extract(html)
			if err == nil || errors.Is(err, ErrNoObjects) {
				return
			}
			var lim *govern.ErrLimitExceeded
			if errors.As(err, &lim) || errors.Is(err, govern.ErrDeadline) {
				return
			}
			t.Fatalf("untyped failure: %v", err)
		})
	}
}
