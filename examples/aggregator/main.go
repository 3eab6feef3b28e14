// Aggregator: the deployment the paper positions Omini inside — a search
// aggregation service gathering result sets from many sites. The example
// stands up the corpus HTTP server, then for each site crawls result pages
// by following discovered next-page links, extracts concurrently with
// per-site rule reuse, and merges everything into one ranked list.
//
//	go run ./examples/aggregator
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/fetch"
	"omini/internal/nav"
	"omini/internal/sitegen"
	"omini/internal/tagtree"
)

func main() {
	// Three "content providers", each serving a chain of result pages.
	providers := []sitegen.SiteSpec{
		{
			Name: "books.example", Domain: sitegen.DomainBooks,
			LayoutName: "row-table",
			Chrome:     sitegen.ChromeSpec{Banner: true, NavLinks: 20},
			Noise:      sitegen.NoiseSpec{InlineHeader: true, InlineFooter: true},
			MinItems:   6, MaxItems: 10,
		},
		{
			Name: "news.example", Domain: sitegen.DomainNews,
			LayoutName: "item-table",
			Chrome:     sitegen.ChromeSpec{Banner: true, NavLinks: 25},
			Noise:      sitegen.NoiseSpec{InlineHeader: true, InlineFooter: true},
			MinItems:   5, MaxItems: 8,
		},
		{
			Name: "search.example", Domain: sitegen.DomainSearch,
			LayoutName: "para-div",
			Noise:      sitegen.NoiseSpec{InlineHeader: true, InlineFooter: true},
			MinItems:   8, MaxItems: 12,
		},
	}
	const pagesPerSite = 4

	srv := fetch.NewCorpusServer()
	pagesByPath := make(map[string]sitegen.Page)
	for _, spec := range providers {
		for _, page := range spec.Pages(pagesPerSite) {
			srv.Add(page)
			pagesByPath["/"+page.Site+"/"+page.Name] = page
		}
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// The farm is the rule cache: each site's first page learns its
	// rule, once, and the site's other pages replay it.
	rulesFarm, err := farm.New(farm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	var (
		f   fetch.Fetcher
		ctx = context.Background()
	)

	type hit struct {
		site string
		text string
	}
	var hits []hit

	for _, spec := range providers {
		// Crawl the site's result chain: start at page 0, follow the
		// discovered "Next page" pointer (the corpus footers link "/next";
		// the example maps that onto the next generated page, the way an
		// aggregator maps relative links onto its fetch queue).
		var batch []core.BatchRequest
		for idx := 0; idx < pagesPerSite; idx++ {
			page := spec.Page(idx)
			body, err := f.Fetch(ctx, srv.URL(page))
			if err != nil {
				log.Fatalf("fetch %s: %v", page.Name, err)
			}
			batch = append(batch, core.BatchRequest{Site: spec.Name, HTML: body})
			if root, err := tagtree.Parse(body); err == nil {
				if _, ok := nav.FindNext(root); !ok {
					break // no further results advertised
				}
			}
		}
		results := rulesFarm.ExtractBatch(ctx, batch, core.BatchOptions{})
		ruleHits := 0
		for _, r := range results {
			if r.Err != nil {
				log.Fatalf("%s: %v", spec.Name, r.Err)
			}
			if r.FromRule {
				ruleHits++
			}
			for _, o := range r.Result.Objects {
				hits = append(hits, hit{site: spec.Name, text: o.Text()})
			}
		}
		fmt.Printf("%-16s crawled %d pages (%d via cached rule), %d objects, confidence %.2f\n",
			spec.Name, len(results), ruleHits,
			countObjects(results), results[0].Result.Confidence())
	}

	// Merge: one ranked list across providers, the aggregation output.
	sort.SliceStable(hits, func(i, j int) bool { return len(hits[i].text) > len(hits[j].text) })
	fmt.Printf("\naggregated %d objects from %d providers; top entries:\n", len(hits), len(providers))
	for i, h := range hits {
		if i == 5 {
			break
		}
		text := h.text
		if len(text) > 70 {
			text = text[:70] + "..."
		}
		fmt.Printf("%d. [%s] %s\n", i+1, strings.TrimSpace(h.site), text)
	}
}

func countObjects(results []core.BatchResult) int {
	n := 0
	for _, r := range results {
		if r.Result != nil {
			n += len(r.Result.Objects)
		}
	}
	return n
}
