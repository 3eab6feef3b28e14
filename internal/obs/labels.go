package obs

// Profiler labels that cost nothing until a profile is read. A pprof
// label set costs a request three allocations per region (the set, its
// merge with the context's, and the derived context), and labels only
// show in a CPU profile captured while they are set. So labelling is
// gated: Labelled applies its label only while Capture runs, which
// serve wraps around /debug/pprof/profile. Goroutine profiles, and
// requests that started before a capture, carry no labels.

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// captures counts the CPU profile captures in flight (Capture).
var captures atomic.Int32

// Label is one pprof label. It is two strings, so building one per
// request costs nothing; the pprof label set is built only while a
// profile is captured.
type Label struct {
	Key, Value string
}

// Capture runs fn, a CPU profile capture, with labelling on: while any
// Capture runs, Labelled labels the regions it runs. The count is
// released when fn returns or panics, whether or not the capture
// succeeded.
func Capture(fn func()) {
	captures.Add(1)
	defer captures.Add(-1)
	fn()
}

// Capturing reports whether a CPU profile capture is in flight, and so
// whether Labelled applies labels.
func Capturing() bool { return captures.Load() != 0 }

// Labelled runs fn under ctx. While a profile is being captured, fn
// runs as pprof.Do runs it: its goroutine carries l on top of ctx's
// labels, and so does the context fn gets. Otherwise fn gets ctx
// itself, at no cost.
func Labelled(ctx context.Context, l Label, fn func(context.Context)) {
	if !Capturing() {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(l.Key, l.Value), fn)
}
