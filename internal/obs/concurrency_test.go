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
				r.Add("shared.counter", 1)
				r.Add("worker.counter", int64(n))
				r.SetGauge("shared.gauge", int64(i))
				r.Observe(PhaseSeries("tidy"), float64(i)*1e-6)
				r.Observe(PhaseSeries("subtree"), float64(i)*1e-5)
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
				_ = r.Names()
			}
		}()
	}
	wg.Wait()
	if got := r.Get("shared.counter"); got != workers*rounds {
		t.Errorf("shared.counter = %d, want %d", got, workers*rounds)
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
				c, sp := StartSpan(ctx, "outer")
				_, in := StartSpan(c, "inner")
				in.End()
				sp.End()
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
