package lint

// governloopBaseline grandfathers the ungoverned exported API that
// predates the resource governor: convenience entry points and pure
// accessors whose governed callers carry the budget. Keyed "pkg.Func" /
// "pkg.Recv.Method". New entries are not added here — new looping entry
// points must take a *govern.Guard or delegate to one.
var governloopBaseline = map[string]bool{
	"combine.Combinations":          true,
	"combine.CombineLists":          true,
	"combine.NewCombination":        true,
	"extract.Object.Size":           true,
	"extract.Object.AppendText":     true,
	"extract.Refine":                true,
	"htmlparse.EscapeAttr":          true,
	"htmlparse.EscapeText":          true,
	"htmlparse.Token.Attr":          true,
	"htmlparse.Token.String":        true,
	"htmlparse.UnescapeText":        true,
	"separator.PPPaths":             true,
	"separator.RPPairs":             true,
	"separator.RankOf":              true,
	"separator.SBPairs":             true,
	"separator.Tags":                true,
	"tagtree.Compile":               true,
	"tagtree.FindPath":              true,
	"tagtree.MinimalSubtree":        true,
	"tagtree.Node.ChildTagCounts":   true,
	"tagtree.Node.ChildTags":        true,
	"tagtree.Node.Depth":            true,
	"tagtree.Node.IsAncestorOf":     true,
	"tagtree.Node.MaxChildTagCount": true,
	"tagtree.Node.Root":             true,
	"tagtree.Node.Walk":             true,
	"tagtree.Outline":               true,
	"tagtree.Path":                  true,
	"tagtree.PathSignature":         true,
	"tagtree.Selector.Match":        true,
	"tagtree.Signature.Similarity":  true,
	"tidy.Serialize":                true,
}
