// Rulecache: the Section 6.6 scenario behind the paper's Table 17. A site's
// structure rarely changes, so the subtree path and separator discovered on
// one page can be cached as a rule and replayed on every other page of the
// site, skipping discovery entirely. The example learns a rule from the
// first page of a corpus site, replays it across the rest, verifies the
// fast path extracts identical objects, and reports the speedup.
//
//	go run ./examples/rulecache
package main

import (
	"fmt"
	"log"
	"time"

	"omini"
	"omini/internal/corpus"
	"omini/internal/sitegen"
)

func main() {
	var spec sitegen.SiteSpec
	for _, s := range corpus.AllSpecs() {
		if s.Name == "www.amazon2.example" {
			spec = s
		}
	}
	pages := spec.Pages(30)
	extractor := omini.NewExtractor()

	// Learn once, from the first page.
	_, rule, err := extractor.Learn(spec.Name, pages[0].HTML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned rule for %s: subtree=%s separator=%q\n\n",
		rule.Site, rule.SubtreePath, rule.Separator)

	// Replay across the site, comparing against full discovery.
	var fullTime, fastTime time.Duration
	var mismatches int
	for _, page := range pages[1:] {
		start := time.Now()
		full, err := extractor.ExtractResult(page.HTML)
		fullTime += time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", page.Name, err)
		}

		start = time.Now()
		fast, err := extractor.ExtractWithRule(page.HTML, rule)
		fastTime += time.Since(start)
		if err != nil {
			log.Fatalf("%s: rule replay: %v", page.Name, err)
		}
		if len(fast.Objects) != len(full.Objects) {
			mismatches++
		}
	}
	n := len(pages) - 1
	fmt.Printf("replayed on %d pages, %d mismatches with full discovery\n", n, mismatches)
	fmt.Printf("full discovery: %8.3f ms/page\n", ms(fullTime, n))
	fmt.Printf("cached rule:    %8.3f ms/page (%.1fx faster)\n",
		ms(fastTime, n), float64(fullTime)/float64(fastTime))
}

func ms(d time.Duration, n int) float64 {
	return float64(d) / float64(n) / float64(time.Millisecond)
}
