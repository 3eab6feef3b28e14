package tagtree

// The reference signature: PathSignature and Signature.Similarity as they
// were before the path trie (a recursive walk concatenating one path
// string per tag node, and the two-map merge), kept verbatim apart from
// the names. TestPathSignatureMatchesOracle, TestDriftScoreMatchesOracle
// and FuzzPathSignature hold the trie-based code to them; do not
// "improve" this file.

// Exported to the external test package, whose corpus and pathology
// sweeps cannot live here (corpus imports tagtree).
var (
	OraclePathSignature = oraclePathSignature
	OracleSimilarity    = oracleSimilarity
)

func oraclePathSignature(n *Node) Signature {
	sig := make(Signature)
	var walk func(v *Node, path string)
	walk = func(v *Node, path string) {
		sig[path]++
		for _, c := range v.Children {
			if !c.IsContent() {
				walk(c, path+"."+c.Tag)
			}
		}
	}
	if n != nil && !n.IsContent() {
		walk(n, n.Tag)
	}
	return sig
}

func oracleSimilarity(s, other Signature) float64 {
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
