package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"testing"
)

// labelIn returns the value of the pprof label key in the context fn
// gets from Labelled, and whether it is set.
func labelIn(ctx context.Context, l Label) (v string, ok bool) {
	Labelled(ctx, l, func(lctx context.Context) { v, ok = pprof.Label(lctx, l.Key) })
	return v, ok
}

// TestLabelledOnlyWhileCapturing: Labelled applies its label only
// while a capture runs, nested labels stack as pprof.Do's do, and the
// capture count is released on return and on panic.
func TestLabelledOnlyWhileCapturing(t *testing.T) {
	site := Label{Key: "site", Value: "a.example"}
	if Capturing() {
		t.Fatal("a capture is in flight before the test started one")
	}
	if v, ok := labelIn(context.Background(), site); ok {
		t.Errorf("no capture: label site=%q set, want none", v)
	}
	Capture(func() {
		if !Capturing() {
			t.Error("Capturing() = false inside Capture")
		}
		if v, ok := labelIn(context.Background(), site); !ok || v != "a.example" {
			t.Errorf("capturing: label site=%q (set %v), want a.example", v, ok)
		}
		Labelled(context.Background(), site, func(ctx context.Context) {
			Labelled(ctx, Label{Key: "path", Value: "fast"}, func(ctx context.Context) {
				s, _ := pprof.Label(ctx, "site")
				p, _ := pprof.Label(ctx, "path")
				if s != "a.example" || p != "fast" {
					t.Errorf("nested: site=%q path=%q, want both labels", s, p)
				}
			})
		})
	})
	if Capturing() {
		t.Error("Capturing() = true after Capture returned")
	}
	func() {
		defer func() { _ = recover() }()
		Capture(func() { panic("capture failed") })
	}()
	if Capturing() {
		t.Error("a panicking capture left the count raised")
	}
	if _, ok := labelIn(context.Background(), site); ok {
		t.Error("label set after every capture ended")
	}
}

// TestCaptureOverlap: overlapping captures keep labelling on until the
// last one ends.
func TestCaptureOverlap(t *testing.T) {
	first, second := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Capture(func() {
			close(first)
			<-second
		})
	}()
	<-first
	Capture(func() {})
	if !Capturing() {
		t.Error("the second capture's end turned labelling off under the first")
	}
	close(second)
	wg.Wait()
	if Capturing() {
		t.Error("Capturing() = true after both captures ended")
	}
}

// TestLabelledAllocs: with no capture in flight Labelled costs
// nothing.
func TestLabelledAllocs(t *testing.T) {
	ctx := context.Background()
	l := Label{Key: "path", Value: "fast"}
	n := 0
	if a := testing.AllocsPerRun(100, func() { Labelled(ctx, l, func(context.Context) { n++ }) }); a != 0 {
		t.Errorf("Labelled without a capture: %v allocs, want 0", a)
	}
}
