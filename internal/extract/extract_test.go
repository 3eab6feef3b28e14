package extract

import (
	"strings"
	"testing"

	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

var _ = tagtree.Path // keep import used across edits

// construct runs Construct with no guard, failing the test on an error a
// nil guard must never produce.
func construct(t *testing.T, sub *tagtree.Node, sepTag string) []Object {
	t.Helper()
	objects, err := Construct(sub, sepTag, nil)
	if err != nil {
		t.Fatalf("Construct(%q): %v", sepTag, err)
	}
	return objects
}

// tagSet returns the set of tag names appearing anywhere in o.
func tagSet(o Object) map[string]bool {
	set := make(map[string]bool)
	for _, n := range o.Nodes {
		for _, v := range n.TagNodes() {
			set[v.Tag] = true
		}
	}
	return set
}

func subtreeOf(t *testing.T, page sitegen.Page) *tagtree.Node {
	t.Helper()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sub := tagtree.FindPath(root, page.Truth.SubtreePath)
	if sub == nil {
		t.Fatalf("truth path %q missing", page.Truth.SubtreePath)
	}
	return sub
}

// Divider-style construction: hr on the LOC page separates records and
// belongs to no object.
func TestConstructDividerStyle(t *testing.T) {
	page := sitegen.LOC()
	body := subtreeOf(t, page)
	objects := construct(t, body, "hr")
	// 20 records + a leading header group (h1, i) + a trailing group.
	if len(objects) != page.Truth.ObjectCount+2 {
		t.Fatalf("got %d candidates, want %d records + header + footer",
			len(objects), page.Truth.ObjectCount)
	}
	for _, o := range objects {
		for _, n := range o.Nodes {
			if n.Tag == "hr" {
				t.Error("divider separator leaked into an object")
			}
		}
	}
	// The middle objects are the records: pre + a.
	rec := objects[1]
	if len(rec.Nodes) != 2 || rec.Nodes[0].Tag != "pre" || rec.Nodes[1].Tag != "a" {
		t.Errorf("record shape = %v", rec.Nodes)
	}
	if !strings.Contains(rec.Text(), "Beagle") {
		t.Errorf("record text = %q", rec.Text())
	}
}

// Opener-style construction: the news tables on canoe.com ARE the objects;
// each table opens an object that absorbs trailing siblings (the empty map,
// the refine-search form) until the next table.
func TestConstructOpenerStyle(t *testing.T) {
	page := sitegen.Canoe()
	form := subtreeOf(t, page)
	objects := construct(t, form, "table")
	// A leading img/br group plus 13 table-opened objects.
	if len(objects) != 14 {
		t.Fatalf("got %d objects, want 14", len(objects))
	}
	for i, o := range objects[1:] {
		if o.Nodes[0].Tag != "table" {
			t.Errorf("object %d opens with %q, want table", i+1, o.Nodes[0].Tag)
		}
	}
	// The separator occurrences are included in (not between) objects.
	if objects[0].Nodes[0].Tag != "img" {
		t.Errorf("leading group starts with %q", objects[0].Nodes[0].Tag)
	}
}

// Opener-style construction keeps the separator node inside the object:
// each <dt> opens a record that carries its <dd>.
func TestConstructDtOpensRecord(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><dl>` +
		`<dt>alpha</dt><dd>first definition body</dd>` +
		`<dt>beta</dt><dd>second definition body</dd>` +
		`<dt>gamma</dt><dd>third definition body</dd>` +
		`</dl></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	dl := root.FindAll("dl")[0]
	objects := construct(t, dl, "dt")
	if len(objects) != 3 {
		t.Fatalf("got %d objects, want 3", len(objects))
	}
	for i, o := range objects {
		if len(o.Nodes) != 2 || o.Nodes[0].Tag != "dt" || o.Nodes[1].Tag != "dd" {
			t.Errorf("object %d = %v, want [dt dd]", i, o.Nodes)
		}
		if !strings.Contains(o.Text(), "definition body") {
			t.Errorf("object %d lost its dd text: %q", i, o.Text())
		}
	}
}

func TestConstructEdgeCases(t *testing.T) {
	page := sitegen.LOC()
	body := subtreeOf(t, page)
	if got := construct(t, nil, "hr"); got != nil {
		t.Error("Construct(nil) != nil")
	}
	if got := construct(t, body, ""); got != nil {
		t.Error("Construct with empty tag != nil")
	}
	if got := construct(t, body, "nosuchtag"); got != nil {
		t.Error("Construct with absent separator != nil")
	}
}

// Refinement drops the header/footer candidates and keeps the records.
func TestRefineDropsChromeOnLOC(t *testing.T) {
	page := sitegen.LOC()
	body := subtreeOf(t, page)
	objects := Refine(construct(t, body, "hr"), RefineOptions{})
	if len(objects) != page.Truth.ObjectCount {
		texts := make([]string, len(objects))
		for i, o := range objects {
			texts[i] = o.Text()[:min(40, len(o.Text()))]
		}
		t.Fatalf("refined to %d objects, want %d: %v",
			len(objects), page.Truth.ObjectCount, texts)
	}
	for _, o := range objects {
		if !strings.Contains(o.Text(), "Call number") {
			t.Errorf("non-record survived refinement: %q", o.Text())
		}
	}
}

// Refinement keeps the 12 news items and drops nav/map/form chrome on the
// canoe page.
func TestRefineDropsChromeOnCanoe(t *testing.T) {
	page := sitegen.Canoe()
	form := subtreeOf(t, page)
	objects := Refine(construct(t, form, "table"), RefineOptions{})
	if len(objects) != page.Truth.ObjectCount {
		t.Fatalf("refined to %d objects, want %d", len(objects), page.Truth.ObjectCount)
	}
	for i, o := range objects {
		if set := tagSet(o); !set["img"] || !set["font"] {
			t.Errorf("object %d lacks the news-item structure: %v", i, set)
		}
	}
}

func TestRefineFewObjectsPassThrough(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><p>a</p><p>b</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	body := root.FindAll("body")[0]
	objects := construct(t, body, "p")
	if got := Refine(objects, RefineOptions{}); len(got) != len(objects) {
		t.Errorf("refinement changed a %d-object set", len(objects))
	}
}

func TestRefineSizeBounds(t *testing.T) {
	// Ten similar items plus one enormous one; the giant must be dropped.
	var b strings.Builder
	b.WriteString(`<html><body>`)
	for i := 0; i < 10; i++ {
		b.WriteString(`<p><b>item</b> short description text</p>`)
	}
	b.WriteString(`<p><b>huge</b> ` + strings.Repeat("filler text ", 200) + `</p>`)
	b.WriteString(`</body></html>`)
	root, err := tagtree.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	body := root.FindAll("body")[0]
	objects := construct(t, body, "p")
	if len(objects) != 11 {
		t.Fatalf("constructed %d, want 11", len(objects))
	}
	refined := Refine(objects, RefineOptions{})
	if len(refined) != 10 {
		t.Errorf("refined to %d, want 10 (giant dropped)", len(refined))
	}
}

func TestRefineUniqueTagLimit(t *testing.T) {
	// One candidate stuffed with tags nobody else has.
	var b strings.Builder
	b.WriteString(`<html><body>`)
	for i := 0; i < 8; i++ {
		b.WriteString(`<p><b>item</b> regular description here</p>`)
	}
	b.WriteString(`<p><table><tr><td><ul><li><em>odd</em> navigation chrome block</li></ul></td></tr></table></p>`)
	b.WriteString(`</body></html>`)
	root, err := tagtree.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	body := root.FindAll("body")[0]
	refined := Refine(construct(t, body, "p"), RefineOptions{})
	for _, o := range refined {
		if tagSet(o)["table"] {
			t.Error("structurally alien candidate survived refinement")
		}
	}
}

func TestObjectAccessors(t *testing.T) {
	root, err := tagtree.Parse(`<html><body><p>hello <b>world</b></p><span>x</span></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	body := root.FindAll("body")[0]
	o := Object{Nodes: body.Children}
	if got := o.Text(); !strings.Contains(got, "hello") || !strings.Contains(got, "x") {
		t.Errorf("Text = %q", got)
	}
	// Whitespace collapses during tree construction: "hello" + "world" + "x".
	if got := o.Size(); got != len("hello")+len("world")+len("x") {
		t.Errorf("Size = %d", got)
	}
	set := tagSet(o)
	for _, tag := range []string{"p", "b", "span"} {
		if !set[tag] {
			t.Errorf("tag set missing %q", tag)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Partition invariants: construction never loses, duplicates, or reorders
// the subtree's children — every non-divider child lands in exactly one
// object, in document order.
func TestConstructPartitionInvariants(t *testing.T) {
	pages := []sitegen.Page{sitegen.LOC(), sitegen.Canoe()}
	for _, page := range pages {
		sub := subtreeOf(t, page)
		for _, sep := range page.Truth.Separators {
			objects := construct(t, sub, sep)
			seen := make(map[*tagtree.Node]bool)
			var flat []*tagtree.Node
			for _, o := range objects {
				for _, n := range o.Nodes {
					if seen[n] {
						t.Fatalf("%s/%s: node appears in two objects", page.Name, sep)
					}
					seen[n] = true
					flat = append(flat, n)
				}
			}
			// Every child is either in an object or a divider occurrence.
			for _, c := range sub.Children {
				if seen[c] {
					continue
				}
				if !c.IsContent() && c.Tag == sep {
					continue // divider-style separator stays outside
				}
				t.Errorf("%s/%s: child %v lost by construction", page.Name, sep, c.Tag)
			}
			// Document order is preserved.
			idx := func(n *tagtree.Node) int { return n.Index }
			for i := 1; i < len(flat); i++ {
				if idx(flat[i]) <= idx(flat[i-1]) {
					t.Fatalf("%s/%s: construction reordered children", page.Name, sep)
				}
			}
		}
	}
}

// Refinement only ever narrows the candidate set, preserving order.
func TestRefineSubsetInvariant(t *testing.T) {
	page := sitegen.Canoe()
	sub := subtreeOf(t, page)
	raw := construct(t, sub, "table")
	refined := Refine(raw, RefineOptions{})
	if len(refined) > len(raw) {
		t.Fatal("refinement grew the object set")
	}
	j := 0
	for _, o := range refined {
		found := false
		for ; j < len(raw); j++ {
			if len(raw[j].Nodes) > 0 && len(o.Nodes) > 0 && raw[j].Nodes[0] == o.Nodes[0] {
				found = true
				j++
				break
			}
		}
		if !found {
			t.Fatal("refined object not drawn in-order from the raw set")
		}
	}
}
