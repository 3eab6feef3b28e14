package core

import (
	"errors"
	"testing"
	"time"

	"omini/internal/govern"
	"omini/internal/pathology"
	"omini/internal/rules"
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
