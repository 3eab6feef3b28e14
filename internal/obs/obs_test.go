package obs

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	testCountA.Add(r, 3)
	testCountA.Add(r, 2)
	testCountB.Add(r, 1)
	if got := r.Get("a.one"); got != 5 {
		t.Errorf("Get(a.one) = %d, want 5", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %d, want 0", got)
	}
	if got := r.Get("inflight"); got != 0 {
		t.Errorf("Get(inflight) = %d, want 0: Get reads counters only", got)
	}
	if got := NewRegistry().Get("a.one"); got != 0 {
		t.Errorf("a fresh registry's a.one = %d, want 0", got)
	}
	if h := r.Histogram("missing"); h.Count() != 0 || r.Histogram("missing") == h {
		t.Error("Histogram(missing) must return a fresh empty histogram")
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	testInflight.Bind(r, func() float64 { return 6 })
	testInflight.Bind(r, func() float64 { return 7 }) // rebinding replaces
	testCache.Bind(r, func() float64 { return 42 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"inflight 7", "cache_size 42", "# TYPE inflight gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ninflight 0\n") {
		t.Errorf("an unbound gauge must read 0:\n%s", b.String())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 and 5000 in +Inf.
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-5556.5) > 1e-9 {
		t.Errorf("sum = %v, want 5556.5", s.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	// 100 observations of 1ms: every quantile must land in the (1e-3, 2e-3]
	// neighborhood, interpolated from the 1e-3..2e-3 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1.5e-3)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got < 1e-3 || got > 2e-3 {
			t.Errorf("Quantile(%v) = %v, want within (1e-3, 2e-3]", q, got)
		}
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := NewHistogram(nil)
	// A spread of latencies: quantiles must be monotone.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-5) // 10µs .. 10ms
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 < 1e-3 || p50 > 1e-2 {
		t.Errorf("p50 = %v, want near 5ms", p50)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	testPanics.Add(r, 2)
	phaseTidy.hist.Observe(r, 0.004)
	phaseTidy.hist.Observe(r, 0.004)
	phaseTokenize.hist.Observe(r, 0.001)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE serve_panics counter",
		"serve_panics 2",
		"# TYPE omini_phase_seconds histogram",
		`omini_phase_seconds_bucket{phase="tidy",le="+Inf"} 2`,
		`omini_phase_seconds_count{phase="tidy"} 2`,
		`omini_phase_seconds_sum{phase="tidy"} 0.008`,
		`omini_phase_seconds_count{phase="tokenize"} 1`,
		"# TYPE omini_phase_seconds_quantile gauge",
		`omini_phase_seconds_quantile{phase="tidy",quantile="0.5"}`,
		`omini_phase_seconds_quantile{phase="tidy",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: the le="5e-03" bucket holds both tidy
	// observations (0.004 <= 0.005).
	if !strings.Contains(out, `omini_phase_seconds_bucket{phase="tidy",le="0.005"} 2`) {
		t.Errorf("cumulative bucket wrong:\n%s", out)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.panics":    "serve_panics",
		"retry.attempts":  "retry_attempts",
		"ok_name:total":   "ok_name:total",
		"9starts.with":    "_starts_with",
		"dash-and space!": "dash_and_space_",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryFromContext(t *testing.T) {
	if got := RegistryFrom(context.Background()); got != Default {
		t.Error("RegistryFrom(background) != Default")
	}
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	if got := RegistryFrom(ctx); got != r {
		t.Error("RegistryFrom lost the attached registry")
	}
}
