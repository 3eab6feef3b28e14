package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// The registry and span recorder are hammered from many goroutines while a
// reader scrapes exposition — the steady state of a serving process. Run
// under -race (scripts/ci.sh does), this is the package's concurrency
// safety proof.

func TestRegistryConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				testShared.Add(r, 1)
				testWorker.Add(r, int64(n))
				testInflight.Bind(r, func() float64 { return float64(i) })
				phaseTidy.hist.Observe(r, float64(i)*1e-6)
				phaseSubtree.hist.ObserveExemplar(r, float64(i)*1e-5, TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c})
			}
		}(w)
	}
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("WritePrometheus: %v", err)
				}
				_ = r.Get("worker.counter")
			}
		}()
	}
	wg.Wait()
	if got := r.Get("shared.counter"); got != workers*rounds {
		t.Errorf("shared.counter = %d, want %d", got, workers*rounds)
	}
	if got := r.Get("worker.counter"); got != rounds*workers*(workers-1)/2 {
		t.Errorf("worker.counter = %d, want %d", got, rounds*workers*(workers-1)/2)
	}
	if got := r.Histogram(PhaseSeries("tidy")).Count(); got != workers*rounds {
		t.Errorf("tidy histogram count = %d, want %d", got, workers*rounds)
	}
	sum := r.Histogram(PhaseSeries("tidy")).Sum()
	// Each worker contributes sum_{i<rounds} i*1e-6.
	want := float64(workers) * float64(rounds*(rounds-1)/2) * 1e-6
	if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("tidy histogram sum = %v, want %v", sum, want)
	}
}

func TestSpansConcurrent(t *testing.T) {
	r := NewRegistry()
	base := WithRegistry(context.Background(), r)
	ctx, rec := WithTraceRecorder(base, false)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c, sp := startSpan(ctx, phaseOuter)
				_, in := startSpan(c, phaseInner)
				in.end()
				sp.end()
			}
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != workers*200 {
		t.Errorf("recorded %d spans, want %d", len(spans), workers*200)
	}
	for _, s := range spans {
		if s.Name == "inner" && (s.Parent != "outer" || s.Depth != 1) {
			t.Fatalf("inner span mis-nested: %+v", s)
		}
	}
	if got := r.Histogram(PhaseSeries("outer")).Count(); got != workers*100 {
		t.Errorf("outer histogram count = %d, want %d", got, workers*100)
	}
}
