package obs

import (
	"context"
	"strings"
	"testing"
)

// The series and phases the package's tests emit, declared like any
// component's: once, at package level.
var (
	testCountA   = NewCounter("a.one", "Test counter a.")
	testCountB   = NewCounter("b.two", "Test counter b.")
	testPanics   = NewCounter("serve.panics", "Recovered handler panics.")
	testShared   = NewCounter("shared.counter", "Adds from every worker.")
	testWorker   = NewCounter("worker.counter", "Adds of each worker's number.")
	testLimitX   = NewCounter(`test.limit{kind="x"}`, "Limit hits by kind.")
	testLimitY   = NewCounter(`test.limit{kind="y"}`, "Limit hits by kind.")
	testInflight = NewGauge("inflight", "Requests in flight.")
	testCache    = NewGauge("cache_size", "Cached entries.")
	testFast     = NewLatency("serve.fast_seconds", "Fast-path latency.")

	phaseTidy     = NewPhase("tidy")
	phaseTokenize = NewPhase("tokenize")
	phaseSubtree  = NewPhase("subtree")
	phaseParse    = NewPhase("parse")
	phaseEntities = NewPhase("entities")
	phaseX        = NewPhase("x")
	phaseAlloc    = NewPhase("alloc")
	phaseSolo     = NewPhase("solo")
	phaseOuter    = NewPhase("outer")
	phaseInner    = NewPhase("inner")
	phaseHandler  = NewPhase("handler")
	phaseFarmSlow = NewPhase("farm.slow")
	phaseHop      = NewPhase("hop")
)

// mustPanic runs f and returns its panic message, failing the test when
// f does not panic.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("declaration did not panic")
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestDeclarationGuards: a series name is declared once, in the grammar,
// before any registry is used — so no name can be built at run time.
func TestDeclarationGuards(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
		want string
	}{
		{"duplicate", func() { NewCounter("a.one", "Test counter a.") }, "declared twice"},
		{"duplicate-after-sanitizing", func() { NewCounter("a_one", "Test counter a.") }, "declared twice"},
		{"duplicate-phase", func() { NewPhase("tidy") }, "declared twice"},
		{"upper-case", func() { NewCounter("Serve.Requests", "x") }, "outside the registry grammar"},
		{"two-labels", func() { NewCounter(`a.b{x="1",y="2"}`, "x") }, "outside the registry grammar"},
		{"dynamic-phase", func() { NewPhase(`say "hi"`) }, "outside the registry grammar"},
		{"no-help", func() { NewCounter("guard.no_help", "") }, "without help text"},
		{"family-kind", func() { NewGauge(`test.limit{kind="z"}`, "Limit hits by kind.") }, "disagrees with its family"},
	} {
		if msg := mustPanic(t, c.f); !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want it to mention %q", c.name, msg, c.want)
		}
	}
	NewRegistry().Get("a.one") // any use seals the declarations
	msg := mustPanic(t, func() { NewCounter("guard.late", "Declared too late.") })
	if !strings.Contains(msg, "after a registry was used") {
		t.Errorf("late declaration: panic %q", msg)
	}
	if s := lookup("guard.late", kindCounter); s != nil {
		t.Errorf("a refused declaration was recorded: %+v", s)
	}
}

// TestExpositionOneHeaderPerFamily: every family, labeled or not, gets
// exactly one # HELP line directly followed by its one # TYPE line, and
// every sample belongs to the family whose header precedes it.
func TestExpositionOneHeaderPerFamily(t *testing.T) {
	r := NewRegistry()
	testLimitX.Add(r, 1)
	testLimitY.Add(r, 2)
	testFast.Observe(r, 0.01)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	helps, types := map[string]int{}, map[string]int{}
	current := ""
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helps[f[2]]++
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+f[2]+" ") {
				t.Errorf("# HELP %s is not followed by its # TYPE line", f[2])
			}
			current = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			types[f[2]]++
			if f[2] != current {
				t.Errorf("# TYPE %s without a # HELP line before it", f[2])
			}
		default:
			if !strings.HasPrefix(line, current) {
				t.Errorf("sample %q outside its family %s", line, current)
			}
		}
	}
	for fam, n := range types {
		if n != 1 || helps[fam] != 1 {
			t.Errorf("family %s: %d HELP and %d TYPE lines, want one each", fam, helps[fam], n)
		}
	}
	for _, want := range []string{
		"# HELP test_limit Limit hits by kind.\n# TYPE test_limit counter\n",
		`test_limit{kind="x"} 1`,
		`test_limit{kind="y"} 2`,
		"# HELP serve_fast_seconds Fast-path latency.\n# TYPE serve_fast_seconds histogram\n",
		"# TYPE serve_fast_seconds_quantile gauge\n",
		"# HELP omini_phase_seconds " + phaseHelp + "\n",
		"\na_one 0\n", // a fresh registry shows every declared series
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestHotPathAllocs: emission allocates nothing — counter adds,
// histogram observations with and without exemplar, and the End of an
// untraced span.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	tid := NewTraceID()
	for name, f := range map[string]func(){
		"counter add":       func() { testCountA.Add(r, 1) },
		"observe":           func() { testFast.Observe(r, 0.002) },
		"observe exemplar":  func() { testFast.ObserveExemplar(r, 0.002, tid) },
		"observe untraced":  func() { testFast.ObserveExemplar(r, 0.002, TraceID{}) },
		"untraced span end": spanEnder(WithRegistry(context.Background(), r)),
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

// spanEnder returns a function that ends one open untraced span per
// call, reopening it first, so only End is measured.
func spanEnder(ctx context.Context) func() {
	_, sp := startSpan(ctx, phaseTidy)
	return func() {
		sp.ended = false
		sp.end()
	}
}

func BenchmarkSpanEnd(b *testing.B) {
	end := spanEnder(WithRegistry(context.Background(), NewRegistry()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			testShared.Add(r, 1)
		}
	})
}
