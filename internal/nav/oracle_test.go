package nav

import (
	"strconv"
	"strings"

	"omini/internal/tagtree"
)

// The reference implementation: FindNext and FindPagination as they were
// before the single-walk rewrite, kept verbatim except for the rel token
// list fix. The differential test and FuzzFindNext hold the production
// code to them.

func oracleFindNext(root *tagtree.Node) (href string, ok bool) {
	var relNext, textNext string
	root.Walk(func(n *tagtree.Node) bool {
		if n.Tag != "a" {
			return true
		}
		target := attr(n, "href")
		if target == "" {
			return true
		}
		if oracleRelHasNext(attr(n, "rel")) && relNext == "" {
			relNext = target
		}
		if textNext == "" && oracleIsNextText(n.InnerText()) {
			textNext = target
		}
		return true
	})
	switch {
	case relNext != "":
		return relNext, true
	case textNext != "":
		return textNext, true
	}
	if bar := oracleFindPagination(root); bar != nil {
		if next := bar.Next(); next != "" {
			return next, true
		}
	}
	return "", false
}

// oracleRelHasNext is the rel fix: rel is split on HTML whitespace and
// any token may be "next", in any case.
func oracleRelHasNext(rel string) bool {
	for _, tok := range strings.FieldsFunc(rel, func(r rune) bool {
		return strings.ContainsRune(" \t\n\f\r", r)
	}) {
		if strings.EqualFold(tok, "next") {
			return true
		}
	}
	return false
}

func oracleIsNextText(text string) bool {
	t := strings.ToLower(strings.Join(strings.Fields(text), " "))
	if nextWords[t] {
		return true
	}
	return strings.HasPrefix(t, "next ")
}

func oracleFindPagination(root *tagtree.Node) *Pagination {
	var best *Pagination
	root.Walk(func(n *tagtree.Node) bool {
		if n.IsContent() {
			return true
		}
		p := oraclePaginationUnder(n)
		if p == nil {
			return true
		}
		if best == nil || len(p.Links) > len(best.Links) {
			best = p
		}
		return true
	})
	return best
}

func oraclePaginationUnder(parent *tagtree.Node) *Pagination {
	links := make(map[int]string)
	current := 0
	for _, c := range parent.Children {
		switch {
		case c.IsContent():
			if n, err := strconv.Atoi(strings.TrimSpace(c.Text)); err == nil && plausiblePage(n) {
				current = n
			}
		case c.Tag == "a":
			text := strings.TrimSpace(c.InnerText())
			n, err := strconv.Atoi(text)
			if err != nil || !plausiblePage(n) {
				continue
			}
			if target := attr(c, "href"); target != "" {
				links[n] = target
			}
		case c.Tag == "b", c.Tag == "strong", c.Tag == "font", c.Tag == "span":
			if n, err := strconv.Atoi(strings.TrimSpace(c.InnerText())); err == nil && plausiblePage(n) {
				current = n
			}
		}
	}
	if !oracleIsNumberRun(links, current) {
		return nil
	}
	return &Pagination{Current: current, Links: links}
}

func oracleIsNumberRun(links map[int]string, current int) bool {
	if len(links) == 0 {
		return false
	}
	present := make(map[int]bool, len(links)+1)
	for n := range links {
		present[n] = true
	}
	if current > 0 {
		present[current] = true
	}
	if len(present) < 3 {
		return false
	}
	run, bestRun := 0, 0
	for n := 1; n <= 1000; n++ {
		if present[n] {
			run++
			if run > bestRun {
				bestRun = run
			}
		} else {
			run = 0
		}
	}
	return bestRun >= 3
}
