package extract

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"omini/internal/corpus"
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// The reference implementations: Construct, Object.Text and Refine as
// they were before objects became sub-slices of the tree's children,
// text was streamed and tags were interned to bits (a Nodes slice grown
// per object; one InnerText per node, TrimSpace and Join; one tag-set
// map per object). The differential tests below hold the production
// code to them.

func oracleConstruct(sub *tagtree.Node, sepTag string, g *govern.Guard) ([]Object, error) {
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

	var (
		objects []Object
		current []*tagtree.Node
		err     error
	)
	flush := func() {
		if err != nil || len(current) == 0 {
			return
		}
		if err = g.Objects(1); err != nil {
			return
		}
		objects = append(objects, Object{Nodes: current})
		current = nil
	}
	for _, c := range sub.Children {
		if err != nil {
			return nil, err
		}
		isSep := !c.IsContent() && c.Tag == sepTag
		if isSep {
			flush()
			if !divider {
				current = append(current, c)
			}
			continue
		}
		current = append(current, c)
	}
	flush()
	if err != nil {
		return nil, err
	}
	return objects, nil
}

func oracleText(o Object) string {
	parts := make([]string, 0, len(o.Nodes))
	for _, n := range o.Nodes {
		if t := strings.TrimSpace(n.InnerText()); t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

func oracleRefine(objects []Object, opts RefineOptions) []Object {
	if len(objects) < 3 {
		return objects
	}
	opts = opts.withDefaults()
	freq := make(map[string]int)
	tagSets := make([]map[string]bool, len(objects))
	for i, o := range objects {
		tagSets[i] = tagSet(o)
		for tag := range tagSets[i] {
			freq[tag]++
		}
	}
	half := (len(objects) + 1) / 2
	var commonTags []string
	for tag, n := range freq {
		if n >= half {
			commonTags = append(commonTags, tag)
		}
	}
	median := medianSize(objects)
	out := make([]Object, 0, len(objects))
	for i, o := range objects {
		if len(commonTags) > 0 {
			have := 0
			for _, tag := range commonTags {
				if tagSets[i][tag] {
					have++
				}
			}
			if float64(have) < opts.MinCommonTagFraction*float64(len(commonTags)) {
				continue
			}
		}
		unique := 0
		for tag := range tagSets[i] {
			if freq[tag] < half {
				unique++
			}
		}
		if unique > opts.MaxUniqueTags {
			continue
		}
		if median > 0 {
			size := float64(o.Size())
			if size < opts.MinSizeRatio*median || size > opts.MaxSizeRatio*median {
				continue
			}
		}
		out = append(out, o)
	}
	return out
}

// checkRefine fails t when Refine keeps a different set of objects than
// the reference.
func checkRefine(t *testing.T, name string, objects []Object, opts RefineOptions) {
	t.Helper()
	got, want := Refine(objects, opts), oracleRefine(objects, opts)
	if len(got) != len(want) {
		t.Fatalf("%s: Refine kept %d objects, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i].Nodes) == 0 || &got[i].Nodes[0] != &want[i].Nodes[0] {
			t.Fatalf("%s: survivor %d differs from the reference", name, i)
		}
	}
}

// checkConstruct fails t when objects, constructed from sub at sepTag,
// differ from the reference's.
func checkConstruct(t *testing.T, name string, objects []Object, sub *tagtree.Node, sepTag string) {
	t.Helper()
	want, err := oracleConstruct(sub, sepTag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if (objects == nil) != (want == nil) || len(objects) != len(want) {
		t.Fatalf("%s: Construct made %d objects (nil %v), reference %d (nil %v)",
			name, len(objects), objects == nil, len(want), want == nil)
	}
	for i := range objects {
		if fmt.Sprint(objects[i].Nodes) != fmt.Sprint(want[i].Nodes) {
			t.Fatalf("%s: object %d is %v, reference %v", name, i, objects[i].Nodes, want[i].Nodes)
		}
		if n := len(objects[i].Nodes); cap(objects[i].Nodes) != n {
			t.Fatalf("%s: object %d Nodes len %d, cap %d", name, i, n, cap(objects[i].Nodes))
		}
	}
}

// TestConstructMatchesOracleOnEdgeCases covers the partitions the
// corpus rarely produces: separators only, leading and trailing runs,
// adjacent separators, in both divider and opener mode.
func TestConstructMatchesOracleOnEdgeCases(t *testing.T) {
	for _, src := range []string{
		`<div><hr><hr><hr></div>`,
		`<div>lead<hr>a<hr><hr>b<hr></div>`,
		`<div><p>x</p><p>y</p>tail</div>`,
		`<div>head<p>x</p><b>1</b><p>y</p></div>`,
		`<div><p>only</p></div>`,
	} {
		root, err := tagtree.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sub := root.FindAll("div")[0]
		for _, tag := range []string{"hr", "p", "b", "absent"} {
			checkConstruct(t, src+" at "+tag, construct(t, sub, tag), sub, tag)
			// Under a one-object budget both fail (or not) alike.
			lim := govern.Limits{MaxObjects: 1}
			_, err := Construct(sub, tag, govern.NewGuard(context.Background(), lim))
			_, wantErr := oracleConstruct(sub, tag, govern.NewGuard(context.Background(), lim))
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s at %s with a one-object budget: %v, reference %v", src, tag, err, wantErr)
			}
		}
	}
}

// TestConstructTextRefineMatchOracleOnCorpus constructs the objects of every
// corpus site's pages under each tag among the object-rich subtree's
// children as the separator, and compares every object's Text and the
// surviving set of Refine with the references.
func TestConstructTextRefineMatchOracleOnCorpus(t *testing.T) {
	const pagesPerSite = 6
	compared := 0
	for _, spec := range corpus.AllSpecs() {
		for k := 0; k < pagesPerSite; k++ {
			page := spec.Page(k)
			sub := subtreeOf(t, page)
			for tag := range sub.ChildTagCounts() {
				name := fmt.Sprintf("%s page %d sep %s", spec.Name, k, tag)
				objects := construct(t, sub, tag)
				checkConstruct(t, name, objects, sub, tag)
				for i, o := range objects {
					if got, want := o.Text(), oracleText(o); got != want {
						t.Fatalf("%s object %d: Text %q, reference %q", name, i, got, want)
					}
					compared++
				}
				checkRefine(t, name, objects, RefineOptions{})
			}
		}
	}
	if compared == 0 {
		t.Fatal("no objects compared")
	}
}

// textPieces are content texts chosen to stress trimming and joining:
// empty, whitespace-only, untrimmed, unicode spaces, and the two halves
// of a U+3000 split across nodes.
var textPieces = []string{"", " ", "\t\n", "a", " b ", "c d", "\u3000", "\xe3\x80", "\x80", "\xff", " e "}

// randomNode builds a hand-made subtree: a content node, or a tag node
// with up to three random children. Hand-built nodes carry no cached
// sizes, so Text's buffer starts empty and grows.
func randomNode(r *rand.Rand, tags []string, depth int) *tagtree.Node {
	if depth > 2 || r.Intn(3) == 0 {
		return &tagtree.Node{Text: textPieces[r.Intn(len(textPieces))]}
	}
	n := &tagtree.Node{Tag: tags[r.Intn(len(tags))]}
	for i := r.Intn(4); i > 0; i-- {
		c := randomNode(r, tags, depth+1)
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

func randomObjects(r *rand.Rand, tags []string, count int) []Object {
	objects := make([]Object, count)
	for i := range objects {
		for j := 1 + r.Intn(3); j > 0; j-- {
			objects[i].Nodes = append(objects[i].Nodes, randomNode(r, tags, 0))
		}
	}
	return objects
}

// TestTextMatchesOracleOnHandBuiltTrees covers what the tree builder
// never emits: untrimmed, whitespace-only and empty content nodes, and
// runes split across nodes.
func TestTextMatchesOracleOnHandBuiltTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i, o := range randomObjects(r, []string{"p", "b"}, 20000) {
		if got, want := o.Text(), oracleText(o); got != want {
			t.Fatalf("object %d: Text %q, reference %q", i, got, want)
		}
	}
	for _, c := range []struct {
		texts []string
		want  string
	}{
		{[]string{"  a  ", "", " \t ", "b c "}, "a b c"},
		{[]string{"", ""}, ""},
		{[]string{" ", "x"}, "x"},
	} {
		var o Object
		for _, s := range c.texts {
			o.Nodes = append(o.Nodes, &tagtree.Node{Text: s})
		}
		if got := o.Text(); got != c.want || got != oracleText(o) {
			t.Errorf("Text of %q = %q, want %q", c.texts, got, c.want)
		}
	}
}

// TestRefineMatchesOracleOnRandomObjects drives Refine with more
// distinct tags than one bit word holds and with tight options, so the
// common/unique split is exercised across word boundaries.
func TestRefineMatchesOracleOnRandomObjects(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// Objects carrying 100 tags twice each: repeats past the first bit
	// word must count once.
	wide := make([]Object, 5)
	for i := range wide {
		n := &tagtree.Node{Tag: "w"}
		for k := 0; k < 200; k++ {
			n.Children = append(n.Children, &tagtree.Node{Tag: fmt.Sprintf("t%d", k%100), Parent: n})
		}
		wide[i].Nodes = []*tagtree.Node{n}
	}
	for id, f := range newTagSets(wide).freq {
		if f != len(wide) {
			t.Errorf("tag %d counted in %d objects, want %d", id, f, len(wide))
		}
	}
	checkRefine(t, "wide", wide, RefineOptions{})
	for _, pool := range []int{3, 70, 150} {
		tags := make([]string, pool)
		for i := range tags {
			tags[i] = fmt.Sprintf("t%d", i)
		}
		for trial := 0; trial < 200; trial++ {
			objects := randomObjects(r, tags, 3+r.Intn(12))
			opts := RefineOptions{MaxUniqueTags: 1 + r.Intn(6), MinCommonTagFraction: r.Float64()}
			name := fmt.Sprintf("pool %d trial %d", pool, trial)
			checkRefine(t, name, objects, opts)
			// Each bit row holds exactly the object's tag set.
			tags, total := newTagSets(objects), 0
			for i, o := range objects {
				want, got := len(tagSet(o)), 0
				for _, w := range tags.row(i) {
					got += bits.OnesCount64(w)
				}
				if got != want {
					t.Fatalf("%s: object %d has %d tag bits, %d tags", name, i, got, want)
				}
				total += want
			}
			for _, f := range tags.freq {
				total -= f
			}
			if total != 0 {
				t.Fatalf("%s: tag frequencies do not sum to the tag sets' sizes", name)
			}
		}
	}
}
