package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"omini/internal/obs"
	"omini/internal/rules"
	"omini/internal/separator"
	"omini/internal/sitegen"
	"omini/internal/subtree"
)

func TestExtractLOCEndToEnd(t *testing.T) {
	page := sitegen.LOC()
	e := New(Options{})
	res, err := e.Extract(page.HTML)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if res.SubtreePath != page.Truth.SubtreePath {
		t.Errorf("subtree = %s, want %s", res.SubtreePath, page.Truth.SubtreePath)
	}
	if !page.Truth.CorrectSeparator(res.Separator) {
		t.Errorf("separator = %q, want one of %v", res.Separator, page.Truth.Separators)
	}
	if len(res.Objects) != page.Truth.ObjectCount {
		t.Errorf("objects = %d, want %d", len(res.Objects), page.Truth.ObjectCount)
	}
	if len(res.Raw) < len(res.Objects) {
		t.Error("raw candidates fewer than refined objects")
	}
	for _, o := range res.Objects {
		if !strings.Contains(o.Text(), "Call number") {
			t.Errorf("extracted non-record: %q", o.Text())
		}
	}
}

func TestExtractCanoeEndToEnd(t *testing.T) {
	page := sitegen.Canoe()
	res, err := New(Options{}).Extract(page.HTML)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if res.SubtreePath != page.Truth.SubtreePath {
		t.Errorf("subtree = %s, want %s", res.SubtreePath, page.Truth.SubtreePath)
	}
	if res.Separator != "table" {
		t.Errorf("separator = %q, want table", res.Separator)
	}
	if len(res.Objects) != page.Truth.ObjectCount {
		t.Errorf("objects = %d, want %d", len(res.Objects), page.Truth.ObjectCount)
	}
}

// phaseCounts returns how many spans each of Phases recorded in reg, and
// fails the test if a recorded phase has no wall time.
func phaseCounts(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	counts := make(map[string]int64, len(Phases))
	for _, phase := range Phases {
		h := reg.Histogram(obs.PhaseSeries(phase))
		counts[phase] = h.Count()
		if h.Count() > 0 && h.Sum() <= 0 {
			t.Errorf("phase %q recorded %d spans but no time", phase, h.Count())
		}
	}
	return counts
}

func TestExtractRecordsTimings(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	if _, err := New(Options{}).ExtractContext(ctx, sitegen.Canoe().HTML); err != nil {
		t.Fatal(err)
	}
	for phase, n := range phaseCounts(t, reg) {
		if n != 1 {
			t.Errorf("phase %q recorded %d spans, want 1", phase, n)
		}
	}
}

func TestExtractWithRuleFastPath(t *testing.T) {
	page := sitegen.Canoe()
	e := New(Options{})
	full, err := e.Extract(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	rule := full.Rule(page.Site)
	if rule.Site != page.Site || !rule.Valid() {
		t.Fatalf("bad rule: %+v", rule)
	}

	reg := obs.NewRegistry()
	fast, err := e.ExtractWithRuleContext(obs.WithRegistry(context.Background(), reg), page.HTML, rule)
	if err != nil {
		t.Fatalf("ExtractWithRule: %v", err)
	}
	if fast.Separator != full.Separator || fast.SubtreePath != full.SubtreePath {
		t.Error("fast path diverged from discovery")
	}
	if len(fast.Objects) != len(full.Objects) {
		t.Errorf("fast objects = %d, full = %d", len(fast.Objects), len(full.Objects))
	}
	for phase, n := range phaseCounts(t, reg) {
		want := int64(1)
		if phase == "separator" {
			want = 0 // the fast path skips separator discovery
		}
		if n != want {
			t.Errorf("fast path: phase %q recorded %d spans, want %d", phase, n, want)
		}
	}
}

func TestExtractWithRuleMismatch(t *testing.T) {
	e := New(Options{})
	page := sitegen.LOC()
	_, err := e.ExtractWithRule(page.HTML, rulesFor("x", "html[1].body[2].div[9]", "tr"))
	if !errors.Is(err, ErrRuleMismatch) {
		t.Errorf("bad path err = %v, want ErrRuleMismatch", err)
	}
	_, err = e.ExtractWithRule(page.HTML, rulesFor("x", "html[1].body[2]", "blockquote"))
	if !errors.Is(err, ErrRuleMismatch) {
		t.Errorf("absent separator err = %v, want ErrRuleMismatch", err)
	}
	_, err = e.ExtractWithRule(page.HTML, rulesFor("x", "", ""))
	if !errors.Is(err, ErrRuleMismatch) {
		t.Errorf("invalid rule err = %v, want ErrRuleMismatch", err)
	}
}

func TestExtractNoObjects(t *testing.T) {
	// A body holding nothing but text offers no candidate tags at all.
	_, err := New(Options{}).Extract(`<html><body>nothing but prose here</body></html>`)
	if !errors.Is(err, ErrNoObjects) {
		t.Errorf("err = %v, want ErrNoObjects", err)
	}
}

func TestExtractParseError(t *testing.T) {
	if _, err := New(Options{}).Extract(""); err == nil {
		t.Error("empty document extracted successfully")
	}
}

func TestOptionsCustomHeuristics(t *testing.T) {
	page := sitegen.Canoe()
	// HF picks the nav font; PP alone on that subtree behaves differently
	// from the default pipeline, demonstrating the options are honored.
	e := New(Options{
		Subtree:    subtree.HF(),
		Separators: []separator.Heuristic{separator.PP()},
	})
	res, err := e.Extract(page.HTML)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if res.SubtreePath == page.Truth.SubtreePath {
		t.Errorf("HF subtree should differ from the truth path on the canoe page")
	}
}

func TestSkipRefine(t *testing.T) {
	page := sitegen.Canoe()
	res, err := New(Options{SkipRefine: true}).Extract(page.HTML)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != len(res.Raw) {
		t.Error("SkipRefine did not bypass refinement")
	}
	if len(res.Objects) <= page.Truth.ObjectCount {
		t.Errorf("raw objects = %d, expected chrome candidates beyond %d",
			len(res.Objects), page.Truth.ObjectCount)
	}
}

func TestSkipNormalize(t *testing.T) {
	// A genuinely well-formed page (every tag explicitly closed) extracts
	// the same objects without the tidy pass.
	src := `<html><body><ul>` +
		`<li><b>alpha</b> first item description text</li>` +
		`<li><b>beta</b> second item description text</li>` +
		`<li><b>gamma</b> third item description text</li>` +
		`<li><b>delta</b> fourth item description text</li>` +
		`</ul></body></html>`
	res, err := New(Options{SkipNormalize: true}).Extract(src)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if res.Separator != "li" {
		t.Errorf("separator = %q, want li", res.Separator)
	}
	if len(res.Objects) != 4 {
		t.Errorf("objects = %d, want 4", len(res.Objects))
	}
}

func rulesFor(site, path, sep string) rules.Rule {
	return rules.Rule{Site: site, SubtreePath: path, Separator: sep}
}

// The paper's document model covers "HTML or XML documents"; an RSS-style
// XML feed of repeated <item> elements extracts like any result list.
func TestExtractXMLFeed(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?><rss version="0.91"><channel>`)
	b.WriteString(`<title>Example Feed</title><link>http://feed.example/</link>`)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `<item><title>Story number %d with a headline</title>`+
			`<link>http://feed.example/story/%d</link>`+
			`<description>A reasonably long description of story %d for the feed reader.</description></item>`, i, i, i)
	}
	b.WriteString(`</channel></rss>`)
	res, err := New(Options{}).Extract(b.String())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if res.Separator != "item" {
		t.Errorf("separator = %q, want item", res.Separator)
	}
	if len(res.Objects) != 8 {
		t.Errorf("objects = %d, want 8", len(res.Objects))
	}
	for i, o := range res.Objects {
		if !strings.Contains(o.Text(), "Story number") {
			t.Errorf("object %d = %q", i, o.Text())
		}
	}
}
