// Package wrapgen implements the wrapper-generation step the paper names
// as its integration path ("we plan to demonstrate the usefulness of Omini
// by combining it with a wrapper generation system, e.g. the XWRAP Elite,
// to automate the wrapper generation and evolution process"): from one
// automatically extracted result page, learn a per-site wrapper that turns
// every object into a structured record — named fields projected from the
// repeated tag structure the objects share.
//
// Learning is fully automatic, like the rest of the system: the field
// schema is the set of leaf signatures (downward tag paths to text or to a
// link/image attribute) shared by at least two thirds of the training
// objects. Field names are assigned by role: the first link's text is the
// title, its href the url, the first image's src the image; everything
// else is named by its path.
package wrapgen

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"omini/internal/core"
	"omini/internal/extract"
	"omini/internal/rules"
	"omini/internal/tagtree"
)

// minFieldSupport is the fraction of training objects that must exhibit a
// signature for it to become a wrapper field.
const minFieldSupport = 2.0 / 3

// Field is one projected attribute of a record.
type Field struct {
	// Name is the field's record key ("title", "url", "image",
	// "text.b1", ...).
	Name string `json:"name"`
	// Path is the dot-joined downward tag path from the object's top
	// level to the value's element ("" for top-level text, "b.a" for text
	// inside a link inside bold).
	Path string `json:"path"`
	// Attr selects an attribute of the element instead of its text
	// ("href", "src"); empty means text content.
	Attr string `json:"attr,omitempty"`
	// Occurrence is the 1-based index among the object's matches of the
	// same Path/Attr (the second link of an object is occurrence 2).
	Occurrence int `json:"occurrence"`
	// Support is the fraction of training objects carrying the field.
	Support float64 `json:"support"`
}

// Wrapper is a learned per-site record extractor: an Omini extraction rule
// plus a field schema.
type Wrapper struct {
	// Site names the site the wrapper was learned from.
	Site string `json:"site"`
	// Rule locates the object-rich subtree and separator.
	Rule rules.Rule `json:"rule"`
	// Fields is the record schema, in a stable order.
	Fields []Field `json:"fields"`
	// Signature records the training page's tag-path structure for drift
	// detection (see Drift).
	Signature tagtree.Signature `json:"signature,omitempty"`
}

// Record is one structured object: field name to value.
type Record map[string]string

// Errors returned by the package.
var (
	// ErrNoObjects is returned when the training page yields no objects.
	ErrNoObjects = errors.New("wrapgen: no objects to learn from")
	// ErrNoFields is returned when the training objects share no
	// structure to project fields from.
	ErrNoFields = errors.New("wrapgen: objects share no common fields")
)

// Learn builds a wrapper for the site from a training page, running the
// full Omini pipeline and generalizing the extracted objects' structure.
func Learn(site, html string) (*Wrapper, error) {
	extractor := core.New(core.Options{})
	res, err := extractor.Extract(html)
	if err != nil {
		return nil, fmt.Errorf("wrapgen: learn %s: %w", site, err)
	}
	w, err := LearnFromResult(site, res)
	if err != nil {
		return nil, err
	}
	if res.Tree != nil {
		w.Signature = tagtree.PathSignature(res.Tree)
	}
	return w, nil
}

// LearnFromResult builds a wrapper from an existing extraction result.
func LearnFromResult(site string, res *core.Result) (*Wrapper, error) {
	if len(res.Objects) == 0 {
		return nil, ErrNoObjects
	}
	fields, err := learnFields(res.Objects)
	if err != nil {
		return nil, err
	}
	return &Wrapper{
		Site:   site,
		Rule:   res.Rule(site),
		Fields: fields,
	}, nil
}

// Extract applies the wrapper to a page of its site: rule-replay extraction
// (the fast path) followed by field projection.
func (w *Wrapper) Extract(html string) ([]Record, error) {
	extractor := core.New(core.Options{})
	res, err := extractor.ExtractWithRule(html, w.Rule)
	if err != nil {
		return nil, fmt.Errorf("wrapgen: extract: %w", err)
	}
	return w.Project(res.Objects), nil
}

// Project converts extracted objects to records under the wrapper's
// schema. Objects exhibiting none of the fields produce no record.
func (w *Wrapper) Project(objects []extract.Object) []Record {
	p := newProjector(w.Fields)
	records := make([]Record, 0, len(objects))
	for _, o := range objects {
		if rec := p.project(o); len(rec) > 0 {
			records = append(records, rec)
		}
	}
	return records
}

// sigKey identifies a value slot inside an object.
type sigKey struct {
	path string
	attr string
}

// learnFields generalizes the objects' shared leaf structure into a field
// schema.
func learnFields(objects []extract.Object) ([]Field, error) {
	type slot struct {
		key        sigKey
		occurrence int
	}
	support := make(map[slot]int)
	for _, o := range objects {
		for key, vals := range valuesOf(o) {
			for i := range vals {
				support[slot{key: key, occurrence: i + 1}]++
			}
		}
	}
	threshold := int(minFieldSupport*float64(len(objects)) + 0.5)
	if threshold < 1 {
		threshold = 1
	}
	var slots []slot
	for s, n := range support {
		if n >= threshold {
			slots = append(slots, s)
		}
	}
	if len(slots) == 0 {
		return nil, ErrNoFields
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.key.path != b.key.path {
			return a.key.path < b.key.path
		}
		if a.key.attr != b.key.attr {
			return a.key.attr < b.key.attr
		}
		return a.occurrence < b.occurrence
	})

	fields := make([]Field, 0, len(slots))
	for _, s := range slots {
		fields = append(fields, Field{
			Name: "", // assigned below
			// A top-level path is a tag name of the page, which a
			// served page's owner reuses; the schema outlives it.
			Path:       strings.Clone(s.key.path),
			Attr:       s.key.attr,
			Occurrence: s.occurrence,
			Support:    float64(support[s]) / float64(len(objects)),
		})
	}
	nameFields(fields)
	return fields, nil
}

// nameFields assigns stable, role-based names: the first link text is
// "title", its href "url", the first image "image"; the remaining fields
// are named from their paths.
func nameFields(fields []Field) {
	// Locate the role fields: the shallowest first-occurrence link/image.
	titleIdx, urlIdx, imgIdx := -1, -1, -1
	depth := func(path string) int {
		if path == "" {
			return 0
		}
		return strings.Count(path, ".") + 1
	}
	for i, f := range fields {
		if f.Occurrence != 1 {
			continue
		}
		last := lastSeg(f.Path)
		switch {
		case last == "a" && f.Attr == "href" && (urlIdx < 0 || depth(f.Path) < depth(fields[urlIdx].Path)):
			urlIdx = i
		case last == "img" && f.Attr == "src" && (imgIdx < 0 || depth(f.Path) < depth(fields[imgIdx].Path)):
			imgIdx = i
		}
	}
	// The title is the text inside the primary link: the shallowest text
	// field whose path starts at the url field's element (<a>text</a>, or
	// <a><b>text</b></a> when the anchor wraps formatting).
	if urlIdx >= 0 {
		linkPath := fields[urlIdx].Path
		for i, f := range fields {
			if f.Occurrence != 1 || f.Attr != "" {
				continue
			}
			if f.Path != linkPath && !strings.HasPrefix(f.Path, linkPath+".") {
				continue
			}
			if titleIdx < 0 || depth(f.Path) < depth(fields[titleIdx].Path) {
				titleIdx = i
			}
		}
	}
	used := make(map[string]bool)
	assign := func(i int, name string) {
		if i >= 0 && !used[name] {
			fields[i].Name = name
			used[name] = true
		}
	}
	assign(titleIdx, "title")
	assign(urlIdx, "url")
	assign(imgIdx, "image")
	for i := range fields {
		if fields[i].Name != "" {
			continue
		}
		name := pathName(fields[i])
		for used[name] {
			name += "x"
		}
		fields[i].Name = name
		used[name] = true
	}
}

// pathName derives a readable default field name.
func pathName(f Field) string {
	base := f.Path
	if base == "" {
		base = "text"
	}
	if f.Attr != "" {
		base += "@" + f.Attr
	}
	if f.Occurrence > 1 {
		base = fmt.Sprintf("%s%d", base, f.Occurrence)
	}
	return base
}

func lastSeg(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// valuesOf enumerates an object's value slots: for every element on a
// downward path, its attribute values of interest, and for every element
// whose children include text, the concatenated direct text — keyed by
// path signature, in document order.
func valuesOf(o extract.Object) map[sigKey][]string {
	values := make(map[sigKey][]string)
	var walk func(n *tagtree.Node, sig string)
	walk = func(n *tagtree.Node, sig string) {
		// Direct text of this element (content children only), one slot.
		var text []string
		for _, c := range n.Children {
			if c.IsContent() {
				text = append(text, c.Text)
			}
		}
		if len(text) > 0 {
			key := sigKey{path: sig}
			values[key] = append(values[key], strings.Join(text, " "))
		}
		for _, attr := range slotAttrs {
			for _, a := range n.Attrs {
				if a.Name == attr && a.Value != "" {
					key := sigKey{path: sig, attr: attr}
					values[key] = append(values[key], a.Value)
				}
			}
		}
		for _, c := range n.Children {
			if !c.IsContent() {
				walk(c, sig+"."+c.Tag)
			}
		}
	}
	for _, n := range o.Nodes {
		if n.IsContent() {
			// Top-level loose text.
			key := sigKey{path: ""}
			values[key] = append(values[key], n.Text)
			continue
		}
		walk(n, n.Tag)
	}
	return values
}
