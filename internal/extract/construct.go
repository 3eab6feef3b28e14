// Package extract implements Phase 3 of the Omini pipeline: candidate
// object construction — partitioning the object-rich subtree at the chosen
// separator tag — and object extraction refinement, which removes candidates
// that do not structurally conform to the majority of objects (list headers,
// footers, stray chrome).
package extract

import (
	"bytes"

	"omini/internal/govern"
	"omini/internal/tagtree"
)

// Object is one extracted data object: a run of sibling nodes from the
// object-rich subtree.
type Object struct {
	// Nodes are the top-level sibling nodes making up the object, in
	// document order.
	Nodes []*tagtree.Node
}

// Text returns the object's visible text: each top-level node's content
// text, trimmed, with empty parts skipped and the rest joined by single
// spaces. The content nodes are streamed into one buffer sized from the
// object's content size.
func (o Object) Text() string {
	buf := make([]byte, 0, o.Size()+len(o.Nodes))
	for _, n := range o.Nodes {
		mark := len(buf)
		if mark > 0 {
			buf = append(buf, ' ')
		}
		start := len(buf)
		n.Walk(func(v *tagtree.Node) bool {
			if v.IsContent() {
				buf = append(buf, v.Text...)
			}
			return true
		})
		part := bytes.TrimSpace(buf[start:])
		if len(part) == 0 {
			buf = buf[:mark]
			continue
		}
		buf = buf[:start+copy(buf[start:], part)]
	}
	return string(buf)
}

// Size returns the content size of the object in bytes.
func (o Object) Size() int {
	total := 0
	for _, n := range o.Nodes {
		total += n.NodeSize()
	}
	return total
}

// dividerContentFraction is the share of the region's content below which
// separator occurrences are treated as empty markers rather than object
// parts. A true divider (<hr>, <br>) carries no content at all; the margin
// tolerates stray whitespace.
const dividerContentFraction = 0.05

// Construct builds candidate objects by partitioning the children of the
// subtree at occurrences of the separator tag (Section 3, Phase 3). The
// separator may play either of the roles the paper observes ("sometimes
// the separator tag sits between objects, and other times it is the root
// of the object or a part of the object"):
//
//   - Divider: when the separator occurrences are (near-)empty markers
//     (<hr> between Library of Congress records), objects are the runs of
//     siblings between consecutive separators, and the markers belong to
//     no object.
//   - Object opener: when the separator occurrences carry content (the
//     <table> that *is* a canoe.com news item, the <dt> that opens each
//     definition-list record), each occurrence starts an object that
//     extends — including following non-separator siblings such as the
//     record's <dd> — until the next occurrence.
//
// Content before the first separator is emitted as a candidate object too
// (a list header, typically) — Refine is responsible for dropping it.
//
// The child partition polls the guard's page context, and each flushed
// object is charged against the object budget, so a page that would
// partition into millions of objects fails typed instead of materializing
// them. A nil guard means unlimited.
func Construct(sub *tagtree.Node, sepTag string, g *govern.Guard) ([]Object, error) {
	if sub == nil || sepTag == "" {
		return nil, nil
	}
	sepContent := 0
	sepCount := 0
	for _, c := range sub.Children {
		if err := g.Poll(); err != nil {
			return nil, err
		}
		if !c.IsContent() && c.Tag == sepTag {
			sepContent += c.NodeSize()
			sepCount++
		}
	}
	if sepCount == 0 {
		return nil, nil
	}
	divider := float64(sepContent) < dividerContentFraction*float64(sub.NodeSize())

	// Every object is a run of consecutive children, so its Nodes is a
	// capped sub-slice of sub.Children: an append by a caller
	// reallocates instead of writing into the tree.
	var (
		objects = make([]Object, 0, sepCount+1)
		begin   int // first child of the pending object
		err     error
	)
	flush := func(end int) {
		if err != nil || end == begin {
			return
		}
		if err = g.Objects(1); err != nil {
			return
		}
		objects = append(objects, Object{Nodes: sub.Children[begin:end:end]})
	}
	for i, c := range sub.Children {
		if err != nil {
			return nil, err
		}
		if !c.IsContent() && c.Tag == sepTag {
			flush(i)
			begin = i
			if divider {
				begin++ // a divider belongs to no object
			}
		}
	}
	flush(len(sub.Children))
	if err != nil || len(objects) == 0 {
		return nil, err
	}
	return objects, nil
}
