package wrapgen

import (
	"slices"
	"strings"

	"omini/internal/extract"
	"omini/internal/tagtree"
)

// slotAttrs are the attributes whose values valuesOf collects. A
// slot's kind is 0 for an element's direct text and i+1 for
// slotAttrs[i].
var slotAttrs = [...]string{"href", "src"}

const numKinds = 1 + len(slotAttrs)

// kindOf returns the slot kind a field's Attr selects, -1 for an
// attribute no slot holds.
func kindOf(attr string) int {
	if attr == "" {
		return 0
	}
	for i, a := range slotAttrs {
		if a == attr {
			return i + 1
		}
	}
	return -1
}

// projector projects objects under one schema. It walks each object
// once, as valuesOf does, but matches every element's path against the
// schema's field paths while it descends, so it builds no path string
// and skips the subtrees that hold no field.
type projector struct {
	// paths are the schema's distinct field paths, sorted, so the
	// paths under any one element are a contiguous run.
	paths []string
	// fields are the schema's fields with each one's slot and its
	// value in the current object.
	fields []fieldSlot
	// seen counts, per slot (path index × numKinds + kind), the values
	// the current object has shown so far.
	seen []int
}

// fieldSlot is one schema field during a projection.
type fieldSlot struct {
	Field
	slot int // -1 when no value can fill the field
	val  string
	ok   bool
}

func newProjector(fields []Field) *projector {
	p := &projector{fields: make([]fieldSlot, len(fields)), paths: make([]string, 0, len(fields))}
	for _, f := range fields {
		p.paths = append(p.paths, f.Path)
	}
	slices.Sort(p.paths)
	p.paths = slices.Compact(p.paths)
	for i, f := range fields {
		k, _ := slices.BinarySearch(p.paths, f.Path)
		slot := -1
		if kind := kindOf(f.Attr); kind >= 0 && f.Occurrence > 0 {
			slot = k*numKinds + kind
		}
		p.fields[i] = fieldSlot{Field: f, slot: slot}
	}
	p.seen = make([]int, len(p.paths)*numKinds)
	return p
}

// project returns o's record: for every field, the Occurrence-th value
// of its slot in document order, where o has that many. It is nil when
// o has none of the fields.
func (p *projector) project(o extract.Object) Record {
	clear(p.seen)
	for i := range p.fields {
		p.fields[i].val, p.fields[i].ok = "", false
	}
	for _, n := range o.Nodes {
		if n.IsContent() {
			// Top-level loose text: each node one value of path "",
			// which sorts first.
			if len(p.paths) > 0 && p.paths[0] == "" && p.count(0) {
				p.put(0, n.Text)
			}
			continue
		}
		if lo, hi := p.under(0, len(p.paths), 0, false, n.Tag); lo < hi {
			p.walk(n, lo, hi, len(n.Tag))
		}
	}
	var rec Record
	for _, f := range p.fields {
		if f.ok {
			if rec == nil {
				rec = make(Record, len(p.fields))
			}
			rec[f.Name] = f.val
		}
	}
	return rec
}

// walk visits element n, whose path is plen bytes long and is a
// prefix of exactly paths[lo:hi].
func (p *projector) walk(n *tagtree.Node, lo, hi, plen int) {
	if len(p.paths[lo]) == plen {
		// n's path is a field path: count its values.
		base := lo * numKinds
		texts := 0
		for _, c := range n.Children {
			if c.IsContent() {
				texts++
			}
		}
		if texts > 0 && p.count(base) {
			p.put(base, directText(n, texts))
		}
		for i, name := range slotAttrs {
			for _, a := range n.Attrs {
				if a.Name == name && a.Value != "" && p.count(base+1+i) {
					p.put(base+1+i, a.Value)
				}
			}
		}
	}
	for _, c := range n.Children {
		if c.IsContent() {
			continue
		}
		if clo, chi := p.under(lo, hi, plen, true, c.Tag); clo < chi {
			p.walk(c, clo, chi, plen+1+len(c.Tag))
		}
	}
}

// under returns the run of paths[lo:hi] — each with the same first
// plen bytes, an element's path — that continue with tag, after a dot
// when nested: the paths at or below the child element tag.
func (p *projector) under(lo, hi, plen int, nested bool, tag string) (int, int) {
	first := -1
	for k := lo; k < hi; k++ {
		rest := p.paths[k][plen:]
		match := false
		if !nested {
			match = strings.HasPrefix(rest, tag)
		} else if len(rest) > 0 && rest[0] == '.' {
			match = strings.HasPrefix(rest[1:], tag)
		}
		switch {
		case match && first < 0:
			first = k
		case !match && first >= 0:
			return first, k
		}
	}
	if first < 0 {
		return lo, lo
	}
	return first, hi
}

// count counts one more value of slot s and reports whether a field
// reads it.
func (p *projector) count(s int) bool {
	p.seen[s]++
	for _, f := range p.fields {
		if f.slot == s && f.Occurrence == p.seen[s] {
			return true
		}
	}
	return false
}

// put gives v, the value of slot s just counted, to every field that
// reads it.
func (p *projector) put(s int, v string) {
	for i := range p.fields {
		if f := &p.fields[i]; f.slot == s && f.Occurrence == p.seen[s] {
			f.val, f.ok = v, true
		}
	}
}

// directText returns n's direct text, its texts content children
// joined with single spaces, as valuesOf joins them.
func directText(n *tagtree.Node, texts int) string {
	var b strings.Builder
	size := texts - 1
	for _, c := range n.Children {
		if c.IsContent() {
			if texts == 1 {
				return c.Text
			}
			size += len(c.Text)
		}
	}
	b.Grow(size)
	sep := false
	for _, c := range n.Children {
		if !c.IsContent() {
			continue
		}
		if sep {
			b.WriteByte(' ')
		}
		b.WriteString(c.Text)
		sep = true
	}
	return b.String()
}
