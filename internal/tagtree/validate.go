package tagtree

import (
	"fmt"
)

// Validate checks the structural invariants of the tree anchored at root
// against a fresh recount, independent of the metrics cached at build time:
//
//   - every child's Parent points back at its parent, and parent links are
//     acyclic (each node is visited exactly once from its unique parent);
//   - Index matches the child's 1-based position (1 at the root);
//   - nodeSize equals the sum of leaf text lengths in the subtree;
//   - tagCount equals the number of nodes in the subtree;
//   - content nodes carry no tag, no children and no attributes.
//
// It exists so tests of the flat single-pass tree builder (and of every
// package that consumes trees) can prove the cached metrics are never
// silently corrupted. It returns the first violation found, nil when the
// tree is sound.
func Validate(root *Node) error {
	if root == nil {
		return fmt.Errorf("tagtree: Validate: nil root")
	}
	if root.Parent == nil && root.Index != 1 {
		return fmt.Errorf("tagtree: root %s has Index %d, want 1", Path(root), root.Index)
	}
	seen := make(map[*Node]bool)
	_, _, err := validate(root, seen)
	return err
}

// validate recomputes (nodeSize, tagCount) for n and checks them against
// the cached values.
func validate(n *Node, seen map[*Node]bool) (size, count int, err error) {
	if seen[n] {
		return 0, 0, fmt.Errorf("tagtree: node %s reachable twice (cycle or shared child)", Path(n))
	}
	seen[n] = true

	if n.IsContent() {
		if len(n.Children) > 0 {
			return 0, 0, fmt.Errorf("tagtree: content node %s has %d children", Path(n), len(n.Children))
		}
		if len(n.Attrs) > 0 {
			return 0, 0, fmt.Errorf("tagtree: content node %s has attributes", Path(n))
		}
		if n.NodeSize() != len(n.Text) {
			return 0, 0, fmt.Errorf("tagtree: content node %s nodeSize %d, want %d",
				Path(n), n.NodeSize(), len(n.Text))
		}
		if n.TagCount() != 1 {
			return 0, 0, fmt.Errorf("tagtree: content node %s tagCount %d, want 1", Path(n), n.TagCount())
		}
		return len(n.Text), 1, nil
	}

	size, count = 0, 1
	for i, c := range n.Children {
		if c.Parent != n {
			return 0, 0, fmt.Errorf("tagtree: child %d of %s has wrong Parent link", i+1, Path(n))
		}
		if c.Index != i+1 {
			return 0, 0, fmt.Errorf("tagtree: child %d of %s has Index %d", i+1, Path(n), c.Index)
		}
		cs, cc, err := validate(c, seen)
		if err != nil {
			return 0, 0, err
		}
		size += cs
		count += cc
	}
	if n.NodeSize() != size {
		return 0, 0, fmt.Errorf("tagtree: node %s nodeSize %d, fresh recount %d", Path(n), n.NodeSize(), size)
	}
	if n.TagCount() != count {
		return 0, 0, fmt.Errorf("tagtree: node %s tagCount %d, fresh recount %d", Path(n), n.TagCount(), count)
	}
	return size, count, nil
}
