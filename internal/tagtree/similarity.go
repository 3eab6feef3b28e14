package tagtree

// Structure similarity between tag trees, the signal behind wrapper
// evolution (the paper's Section 7): a cached rule or wrapper is safe to
// replay while the site's page structure stays put, and should be
// relearned when it drifts. Similarity is measured over the multiset of
// root-to-node tag paths — the same vocabulary the PP heuristic ranks —
// so pages that differ only in content score 1.0 and a redesigned layout
// scores near 0.

// Signature is a multiset of root-to-node tag paths.
type Signature map[string]int

// PathSignature computes the signature of the subtree anchored at n: for
// every tag node, the dot-joined tag path from n down to it, counted with
// multiplicity. Content nodes contribute nothing (content changes page to
// page; structure is what wrappers depend on). The paths are counted in a
// PathTrie, so each distinct path is rendered once.
func PathSignature(n *Node) Signature {
	t, _ := BuildPathTrie([]*Node{n}, nil)
	return t.Signature()
}

// Similarity returns the weighted Jaccard similarity of two signatures in
// [0,1]: Σ min(a_p, b_p) / Σ max(a_p, b_p) over all paths p. Two trees
// with identical structure score 1; trees sharing no paths score 0.
func (s Signature) Similarity(other Signature) float64 {
	if len(s) == 0 && len(other) == 0 {
		return 1
	}
	var minSum, maxSum int
	for p, a := range s {
		b := other[p]
		if a < b {
			minSum += a
			maxSum += b
		} else {
			minSum += b
			maxSum += a
		}
	}
	for p, b := range other {
		if _, seen := s[p]; !seen {
			maxSum += b
		}
	}
	if maxSum == 0 {
		return 0
	}
	return float64(minSum) / float64(maxSum)
}

// Similarity is the structural similarity of two trees (see
// Signature.Similarity).
func Similarity(a, b *Node) float64 {
	return PathSignature(a).Similarity(PathSignature(b))
}
