// Package subtree exercises the governloop analyzer: loops inside
// governed functions must charge the guard, and exported entry points
// may not loop without one.
package subtree

import "fixture/internal/govern"

// SumGoverned charges on every loop iteration: conforming.
func SumGoverned(xs []int, g *govern.Guard) int {
	total := 0
	for _, x := range xs {
		g.Poll()
		total += x
	}
	return total
}

// LeakGoverned skips the guard inside its loop.
func LeakGoverned(xs []int, g *govern.Guard) int {
	total := 0
	for _, x := range xs { // want "does not charge the \\*govern.Guard"
		total += x
	}
	return total + len(xs)
}

// Join loops in an exported entry point with no guard anywhere.
func Join(xs []int) int { // want "exported entry point Join loops without"
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Batch loops but delegates each step to a guard-taking function:
// conforming.
func Batch(groups [][]int) int {
	total := 0
	for _, grp := range groups {
		total += SumGoverned(grp, nil)
	}
	return total
}

// DescendGoverned delegates charging to a recursive local closure that
// polls: conforming.
func DescendGoverned(n int, g *govern.Guard) int {
	var walk func(int) int
	walk = func(d int) int {
		g.Poll()
		if d <= 0 {
			return 0
		}
		return 1 + walk(d-1)
	}
	return walk(n)
}

// SpinGoverned recurses through a closure that never charges.
func SpinGoverned(n int, g *govern.Guard) int {
	var spin func(int) int
	spin = func(d int) int { // want "recursive closure spin"
		if d <= 0 {
			return 0
		}
		return 1 + spin(d-1)
	}
	return spin(n)
}

// walker carries the guard the way the tidy normalizer does.
type walker struct {
	g *govern.Guard
}

func (w *walker) step() { w.g.Poll() }

// drain loops but charges through the guard-carrying receiver:
// conforming.
func (w *walker) drain(xs []int) int {
	total := 0
	for _, x := range xs {
		w.step()
		total += x
	}
	return total
}
