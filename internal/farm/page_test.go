package farm

import (
	"context"
	"reflect"
	"testing"

	"omini/internal/core"
	"omini/internal/tagtree"
)

// TestMismatchRelearnOnOnePage serves a redesigned page on a pooled
// page: the cached rule fails to replay, and the farm relearns by
// parsing the same page again in the same memory. The answer and the
// relearned rule must be what discovery gives on a fresh page.
func TestMismatchRelearnOnOnePage(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	old := testSpec("redesign.example", "ul-record")
	redesigned := testSpec("redesign.example", "div-card")
	ctx := context.Background()
	if _, _, err := f.Extract(ctx, old.Name, core.NewPage(old.Page(0).HTML)); err != nil {
		t.Fatalf("learn: %v", err)
	}

	html := redesigned.Page(0).HTML
	p := core.GetPage()
	defer p.Release()
	p.SetBody(append(p.Buffer(), html...))
	got, out, err := f.Extract(ctx, redesigned.Name, p)
	if err != nil || !out.Relearned {
		t.Fatalf("post-redesign Extract: out=%+v err=%v, want a relearn", out, err)
	}
	want, err := core.New(core.Options{}).Extract(html)
	if err != nil {
		t.Fatal(err)
	}
	if got.SubtreePath != want.SubtreePath || got.Separator != want.Separator || len(got.Objects) != len(want.Objects) {
		t.Fatalf("relearned on the page: %s/%s with %d objects; fresh page: %s/%s with %d",
			got.SubtreePath, got.Separator, len(got.Objects), want.SubtreePath, want.Separator, len(want.Objects))
	}
	for i := range got.Objects {
		if g, w := got.Objects[i].Text(), want.Objects[i].Text(); g != w {
			t.Fatalf("object %d: %q, fresh page %q", i+1, g, w)
		}
	}
	if g, w := tagtree.PathSignature(got.Tree), tagtree.PathSignature(want.Tree); !reflect.DeepEqual(g, w) {
		t.Fatalf("tree signature %v, fresh page %v", g, w)
	}
	if r, _ := f.Get(redesigned.Name); r.SubtreePath != want.SubtreePath || r.Separator != want.Separator || r.Version != 2 {
		t.Fatalf("relearned rule %+v, want %s/%s at version 2", r, want.SubtreePath, want.Separator)
	}
}

// TestDriftedPageOutlivesRelease serves a drifted page on a pooled
// page, releases it as serve does once the answer is written, and only
// then lets the revalidator relearn: the queued copy must still be the
// page, so the relearned rule is what discovery gives on it.
func TestDriftedPageOutlivesRelease(t *testing.T) {
	f, stats := newTestFarm(t, Config{SampleEvery: 1})
	ctx := context.Background()
	site := "drift.example"
	if _, _, err := f.Extract(ctx, site, core.NewPage(driftTrainPage(site))); err != nil {
		t.Fatalf("learn: %v", err)
	}
	html := driftedPage(t, site)
	p := core.GetPage()
	p.SetBody(append(p.Buffer(), html...))
	if _, out, err := f.Extract(ctx, site, p); err != nil || !out.FromRule {
		t.Fatalf("drifted page should replay: out=%+v err=%v", out, err)
	}
	p.Release()
	if n := f.Revalidate(ctx); n != 1 || stats.Get(SeriesRelearn) != 1 {
		t.Fatalf("Revalidate relearned %d pages (farm.relearn %d), want 1", n, stats.Get(SeriesRelearn))
	}
	want, err := core.New(core.Options{}).Extract(html)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := f.Get(site); r.SubtreePath != want.SubtreePath || r.Separator != want.Separator || r.Version != 2 {
		t.Fatalf("relearned rule %+v, want %s/%s at version 2", r, want.SubtreePath, want.Separator)
	}
}

// TestFullQueueSkipsDriftCheck fills a one-slot relearn queue with one
// drifted site, then serves another drifted site: while the queue is
// full its sampled hits are dropped before they are scored or copied,
// so drift checks and queued copies stay at one per queued page.
func TestFullQueueSkipsDriftCheck(t *testing.T) {
	f, stats := newTestFarm(t, Config{SampleEvery: 1, SampleQueue: 1})
	ctx := context.Background()
	sites := []string{"drift-a.example", "drift-b.example"}
	for _, site := range sites {
		if _, _, err := f.Extract(ctx, site, core.NewPage(driftTrainPage(site))); err != nil {
			t.Fatalf("learn %s: %v", site, err)
		}
	}
	serve := func(site string) {
		t.Helper()
		if _, out, err := f.Extract(ctx, site, core.NewPage(driftedPage(t, site))); err != nil || !out.FromRule {
			t.Fatalf("%s: drifted page should replay: out=%+v err=%v", site, out, err)
		}
	}
	serve(sites[0])
	for i := 0; i < 3; i++ {
		serve(sites[1])
	}
	if got := stats.Get(SeriesDriftChecks); got != 1 {
		t.Fatalf("farm.drift_checks = %d with the queue full, want 1", got)
	}
	if got := stats.Get(SeriesDriftDetected); got != 1 {
		t.Fatalf("farm.drift_detected = %d with the queue full, want 1", got)
	}
	if got := stats.Get(SeriesSampleDropped); got != 3 {
		t.Fatalf("farm.samples_dropped = %d, want 3", got)
	}
	if n := f.Revalidate(ctx); n != 1 {
		t.Fatalf("Revalidate relearned %d pages, want 1", n)
	}
	// With the queue drained, the next sampled hit is scored and queued.
	serve(sites[1])
	if got := stats.Get(SeriesDriftChecks); got != 2 {
		t.Fatalf("farm.drift_checks = %d after the queue drained, want 2", got)
	}
	if n := f.Revalidate(ctx); n != 1 {
		t.Fatalf("Revalidate relearned %d pages after the queue drained, want 1", n)
	}
	for _, site := range sites {
		if r, _ := f.Get(site); r.Version != 2 {
			t.Fatalf("%s: rule version %d, want 2", site, r.Version)
		}
	}
}
