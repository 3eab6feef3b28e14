package subtree

import (
	"omini/internal/govern"
	"omini/internal/tagtree"
)

// compound is the combined subtree algorithm of Section 4.4: each individual
// metric (fanout, size increase, tag count) is one dimension of a
// multi-dimensional space, and subtrees are ranked by their volume in that
// space. Navigation menus (high fanout, tiny size) and single large blobs
// (big size, few tags) both collapse to small volumes; genuine object lists
// are large in all three dimensions at once.
type compound struct{}

// Compound returns the combined multi-dimensional volume heuristic. It is
// the subtree extractor the Omini pipeline uses by default.
func Compound() Heuristic { return compound{} }

func (compound) Name() string { return "Compound" }

// compoundWindow bounds the minimality re-ranking pass; only the head of
// the list can be chosen.
const compoundWindow = 16

// compoundMinimalityRatio is the content fraction at which a descendant
// displaces its ancestor: carrying 80% of the ancestor's content means the
// ancestor's lead is chrome, and Definition 4 wants the minimal subtree.
const compoundMinimalityRatio = 0.8

// compoundMinimalityFanout is the least fanout a promoted descendant needs:
// a region of one child cannot be the list of objects itself.
const compoundMinimalityFanout = 3

func (compound) Rank(root *tagtree.Node, g *govern.Guard) ([]Ranked, error) {
	entries, err := rankCandidates(root, volume, g)
	if err != nil {
		return nil, err
	}

	// Minimality pass: an ancestor always accumulates at least its
	// descendant's size and tags, so a page whose chrome is light can rank
	// body just above the true object region. When a descendant holds
	// nearly all of a higher-ranked ancestor's volume, the descendant is
	// the minimal subtree with the property and takes the ancestor's
	// position.
	window := compoundWindow
	if window > len(entries) {
		window = len(entries)
	}
	for i := 0; i < window; i++ {
		for j := i + 1; j < window; j++ {
			g.Poll()
			anc, desc := entries[i].Node, entries[j].Node
			if !anc.IsAncestorOf(desc) {
				continue
			}
			holdsContent := float64(desc.NodeSize()) >=
				compoundMinimalityRatio*float64(anc.NodeSize())
			if holdsContent && desc.Fanout() >= compoundMinimalityFanout {
				entries[i], entries[j] = entries[j], entries[i]
				j = i
			}
		}
	}
	return entries, nil
}

// volume computes the multi-dimensional volume of one subtree. The size
// dimension is squared: fanout and tag count both reward link farms (a
// navigation menu has dozens of children and tags but little content),
// while size increase measures the content mass that distinguishes a
// result list from chrome — emphasizing it keeps a six-result page from
// losing its region to a thirty-link menu. Factors are shifted by +1 so a
// zero in one dimension does not erase the others.
func volume(n *tagtree.Node) float64 {
	size := sizeIncrease(n) + 1
	return float64(n.Fanout()) * size * size * float64(n.TagCount())
}
