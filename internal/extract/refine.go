package extract

import (
	"math/bits"
	"sort"

	"omini/internal/tagtree"
)

// RefineOptions tune the object extraction refinement step. The zero value
// selects the defaults described below.
type RefineOptions struct {
	// MinCommonTagFraction is the fraction of the majority tag signature an
	// object must exhibit to survive (default 2/3): "an object that is
	// missing a common set of tags" is removed.
	MinCommonTagFraction float64
	// MaxUniqueTags is the number of tags an object may carry that appear
	// in fewer than half of the objects (default 4): "an object that has
	// too many unique tags" is removed. The default tolerates one embedded
	// sponsor block (table/tr/td/img) swept into an object during
	// construction without dropping the object.
	MaxUniqueTags int
	// MinSizeRatio and MaxSizeRatio bound object content size relative to
	// the median object (defaults 0.1 and 10): "if the object is too small
	// or too large it will be removed as well".
	MinSizeRatio float64
	MaxSizeRatio float64
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.MinCommonTagFraction == 0 {
		o.MinCommonTagFraction = 2.0 / 3
	}
	if o.MaxUniqueTags == 0 {
		o.MaxUniqueTags = 4
	}
	if o.MinSizeRatio == 0 {
		o.MinSizeRatio = 0.1
	}
	if o.MaxSizeRatio == 0 {
		o.MaxSizeRatio = 10
	}
	return o
}

// Refine removes candidate objects that do not conform to the structure of
// the majority of objects (Phase 3's Object Extraction Refinement): list
// headers and footers swept up by construction, chrome blocks, and
// candidates far smaller or larger than a typical object. With fewer than
// three candidates there is no meaningful majority and the input is
// returned unchanged.
func Refine(objects []Object, opts RefineOptions) []Object {
	if len(objects) < 3 {
		return objects
	}
	opts = opts.withDefaults()

	// Tag frequency across objects defines the majority structure: tags in
	// at least half of the objects are "common"; tags in fewer than half
	// are "unique" to their carriers.
	tags := newTagSets(objects)
	half := (len(objects) + 1) / 2
	common, nCommon := tags.common(half)

	median := medianSize(objects)

	out := make([]Object, 0, len(objects))
	for i, o := range objects {
		have, unique := tags.split(i, common)
		if nCommon > 0 && float64(have) < opts.MinCommonTagFraction*float64(nCommon) {
			continue // missing the common structure
		}
		if unique > opts.MaxUniqueTags {
			continue // too much structure of its own
		}
		if median > 0 {
			size := float64(o.Size())
			if size < opts.MinSizeRatio*median || size > opts.MaxSizeRatio*median {
				continue // far from the typical object size
			}
		}
		out = append(out, o)
	}
	return out
}

// medianSize returns the median content size of the objects.
func medianSize(objects []Object) float64 {
	sizes := make([]int, len(objects))
	for i, o := range objects {
		sizes[i] = o.Size()
	}
	sort.Ints(sizes)
	n := len(sizes)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sizes[n/2])
	}
	return float64(sizes[n/2-1]+sizes[n/2]) / 2
}

// tagSets holds, for each object of one Refine call, the set of tag names
// appearing anywhere in it — the structural signature refinement
// compares. Tags are interned to small ints and each object's set is a
// row of bits in one shared slab, so a call allocates the same few
// slices however many objects it refines.
type tagSets struct {
	words int      // uint64 words per row
	rows  []uint64 // row i is object i's set
	freq  []int    // freq[id] is the number of objects carrying tag id
}

func newTagSets(objects []Object) tagSets {
	ids := make(map[string]int)
	for _, o := range objects {
		eachTag(o, func(tag string) {
			if _, ok := ids[tag]; !ok {
				ids[tag] = len(ids)
			}
		})
	}
	t := tagSets{words: (len(ids) + 63) / 64, freq: make([]int, len(ids))}
	t.rows = make([]uint64, t.words*len(objects))
	for i, o := range objects {
		row := t.row(i)
		eachTag(o, func(tag string) {
			id := ids[tag]
			if row[id/64]&(1<<(id%64)) == 0 {
				row[id/64] |= 1 << (id % 64)
				t.freq[id]++
			}
		})
	}
	return t
}

// eachTag calls fn with the tag of every tag node in o, repeats included.
func eachTag(o Object, fn func(tag string)) {
	for _, n := range o.Nodes {
		n.Walk(func(v *tagtree.Node) bool {
			if !v.IsContent() {
				fn(v.Tag)
			}
			return true
		})
	}
}

func (t tagSets) row(i int) []uint64 { return t.rows[i*t.words : (i+1)*t.words] }

// common returns the set of tags carried by at least atLeast objects,
// and its size.
func (t tagSets) common(atLeast int) (set []uint64, n int) {
	set = make([]uint64, t.words)
	for id, f := range t.freq {
		if f >= atLeast {
			set[id/64] |= 1 << (id % 64)
			n++
		}
	}
	return set, n
}

// split returns how many of object i's tags are in common and how many
// are not.
func (t tagSets) split(i int, common []uint64) (have, other int) {
	for k, w := range t.row(i) {
		have += bits.OnesCount64(w & common[k])
		other += bits.OnesCount64(w &^ common[k])
	}
	return have, other
}
