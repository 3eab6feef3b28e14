// Newsportal: the paper's Section 4 walk-through on the canoe.com replica.
// The page's navigation font has the highest fan-out in the tree, so the
// naive HF heuristic picks the menu; GSI, LTC and the compound algorithm
// find the real news region. The example prints each heuristic's top
// choice, then extracts the twelve news items.
//
//	go run ./examples/newsportal
package main

import (
	"fmt"
	"log"

	"omini"
	"omini/internal/sitegen"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

func main() {
	page := sitegen.Canoe()
	root, err := tagtree.Parse(page.HTML)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("object-rich subtree, per heuristic (Table 1 behaviour):")
	for _, h := range []subtree.Heuristic{subtree.HF(), subtree.GSI(), subtree.LTC(), subtree.Compound()} {
		ranked, err := h.Rank(root, nil)
		if err != nil {
			log.Fatal(err)
		}
		top := ranked[0]
		marker := " "
		if tagtree.Path(top.Node) == page.Truth.SubtreePath {
			marker = "*"
		}
		fmt.Printf("  %s %-8s -> %s\n", marker, h.Name(), tagtree.Path(top.Node))
	}
	fmt.Printf("ground truth: %s\n\n", page.Truth.SubtreePath)

	res, err := omini.NewExtractor().ExtractResult(page.HTML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("separator %q -> %d news items (chrome candidates dropped: %d)\n\n",
		res.Separator, len(res.Objects), len(res.Raw)-len(res.Objects))
	for i, o := range res.Objects {
		text := o.Text()
		if len(text) > 78 {
			text = text[:78] + "..."
		}
		fmt.Printf("%2d. %s\n", i+1, text)
	}
}
