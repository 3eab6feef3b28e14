package wrapgen

import (
	"reflect"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/extract"
	"omini/internal/htmlparse"
	"omini/internal/tagtree"
)

// projectByPaths is the projection Project computes, spelled out over
// valuesOf's path-keyed value lists: every field takes the
// Occurrence-th value of its slot.
func projectByPaths(fields []Field, objects []extract.Object) []Record {
	records := make([]Record, 0, len(objects))
	for _, o := range objects {
		values := valuesOf(o)
		rec := make(Record, len(fields))
		for _, f := range fields {
			vals := values[sigKey{path: f.Path, attr: f.Attr}]
			if f.Occurrence <= len(vals) {
				rec[f.Name] = vals[f.Occurrence-1]
			}
		}
		if len(rec) > 0 {
			records = append(records, rec)
		}
	}
	return records
}

// TestProjectMatchesValuesOf: Project's one-walk matching gives the
// records valuesOf's path strings give, for every corpus site's
// schema on its own pages and on another site's pages.
func TestProjectMatchesValuesOf(t *testing.T) {
	ex := core.New(core.Options{})
	specs := corpus.AllSpecs()
	var schemas [][]Field
	var pages [][]extract.Object
	for _, spec := range specs {
		for k := 0; k < 3; k++ {
			res, err := ex.Extract(spec.Page(k).HTML)
			if err != nil {
				continue
			}
			pages = append(pages, res.Objects)
			if k == 0 {
				if w, err := LearnFromResult(spec.Name, res); err == nil {
					schemas = append(schemas, w.Fields)
				}
			}
		}
	}
	if len(schemas) < len(specs)/2 || len(pages) == 0 {
		t.Fatalf("%d schemas and %d pages from %d sites", len(schemas), len(pages), len(specs))
	}
	records := 0
	for i, fields := range schemas {
		w := &Wrapper{Fields: fields}
		for j, objects := range pages {
			got, want := w.Project(objects), projectByPaths(fields, objects)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("schema %d on page %d:\n got %v\nwant %v", i, j, got, want)
			}
			records += len(got)
		}
	}
	if records == 0 {
		t.Fatal("no schema projected a record")
	}
}

// TestProjectEdgeCases: loose top-level text, empty and repeated
// text children, repeated attributes, dotted tag names that spell
// another path, and fields no value can fill project as valuesOf's
// paths do.
func TestProjectEdgeCases(t *testing.T) {
	text := func(s string) *tagtree.Node { return &tagtree.Node{Text: s} }
	el := func(tag string, attrs []htmlparse.Attr, kids ...*tagtree.Node) *tagtree.Node {
		return &tagtree.Node{Tag: tag, Attrs: attrs, Children: kids}
	}
	href := func(v ...string) []htmlparse.Attr {
		var as []htmlparse.Attr
		for _, s := range v {
			as = append(as, htmlparse.Attr{Name: "href", Value: s})
		}
		return as
	}
	objects := []extract.Object{
		{Nodes: []*tagtree.Node{
			text("loose one"),
			el("a", href("/1", "", "/2"), text(""), text("title"), el("b", nil, text("bold"))),
			text("loose two"),
			el("a.b", nil, text("dotted")),
			el("a", href("/3"), el("b", nil, text("x"), text("y"))),
			el("img", []htmlparse.Attr{{Name: "src", Value: "i.png"}, {Name: "alt", Value: "alt"}}),
		}},
		{Nodes: []*tagtree.Node{el("div", nil, el("a", href("/4")))}},
		{Nodes: []*tagtree.Node{el("p", nil, text("no field here"))}},
	}
	fields := []Field{
		{Name: "loose", Path: "", Occurrence: 1},
		{Name: "loose2", Path: "", Occurrence: 2},
		{Name: "title", Path: "a", Occurrence: 1},
		{Name: "url", Path: "a", Attr: "href", Occurrence: 1},
		{Name: "url2", Path: "a", Attr: "href", Occurrence: 2},
		{Name: "url3", Path: "a", Attr: "href", Occurrence: 3},
		{Name: "bold", Path: "a.b", Occurrence: 1},
		{Name: "bold2", Path: "a.b", Occurrence: 2},
		{Name: "image", Path: "img", Attr: "src", Occurrence: 1},
		{Name: "alt", Path: "img", Attr: "alt", Occurrence: 1},
		{Name: "deep", Path: "div.a", Attr: "href", Occurrence: 1},
		{Name: "missing", Path: "div.a", Occurrence: 1},
		{Name: "dup", Path: "a", Occurrence: 2},
		{Name: "dup", Path: "a", Occurrence: 1},
	}
	w := &Wrapper{Fields: fields}
	got, want := w.Project(objects), projectByPaths(fields, objects)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got  %v\nwant %v", got, want)
	}
	if len(got) != 2 || got[0]["bold2"] != "dotted" || got[0]["title"] != " title" || got[0]["dup"] != " title" {
		t.Errorf("records %v: want two, the dotted tag read as path a.b and the empty text joined", got)
	}
}

// TestProjectAllocs: projecting an object builds no path string; a
// page costs its records and a fixed set-up.
func TestProjectAllocs(t *testing.T) {
	spec := siteSpec(t, "www.canoe.example")
	res, err := core.New(core.Options{}).Extract(spec.Page(0).HTML)
	if err != nil {
		t.Fatal(err)
	}
	w, err := LearnFromResult(spec.Name, res)
	if err != nil {
		t.Fatal(err)
	}
	records := len(w.Project(res.Objects))
	got := testing.AllocsPerRun(20, func() { w.Project(res.Objects) })
	// Per record at most its map (header and table) and one joined
	// text; once per page the record slice, the projector and its
	// three slices.
	if limit := float64(3*records + 5); got > limit {
		t.Errorf("Project: %v allocs for %d records, want at most %v", got, records, limit)
	}
}
