// Package nav discovers result-list navigation on extracted pages: the
// next-page link an aggregation service follows to gather the full result
// set (the crawl loop around the paper's Figure 3 pipeline), and numbered
// pagination bars. Like the rest of the system it is heuristic and fully
// automatic.
//
// FindNext runs on every served page, so it makes one walk over the
// anchors, stops at the first rel="next" one, and allocates nothing on a
// page without a pagination bar: anchor text and page numbers are read by
// streaming over content nodes instead of building InnerText strings, and
// FindPagination, the last resort, counts a numbered bar before it builds
// any map for it.
package nav

import (
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"

	"omini/internal/tagtree"
)

// nextWords are anchor texts that signal the next result page, checked
// after whitespace collapsing and lower-casing.
var nextWords = map[string]bool{
	"next":            true,
	"next page":       true,
	"next 10":         true,
	"next 20":         true,
	"next results":    true,
	"more":            true,
	"more results":    true,
	">":               true,
	">>":              true,
	"›":               true,
	"»":               true,
	"next →":          true,
	"show more":       true,
	"view more":       true,
	"next 10 matches": true,
	"next 20 records": true,
}

// FindNext returns the href of the most plausible next-page link on the
// page, preferring an explicit rel="next" anchor (rel is a token list, so
// rel="nofollow next" counts), then next-flavored link text (with
// "next N ..." prefixes recognized), then a numbered pagination bar's
// successor. ok is false when the page offers no next link.
func FindNext(root *tagtree.Node) (href string, ok bool) {
	var f nextFinder
	f.walk(root)
	switch {
	case f.rel != "":
		return f.rel, true
	case f.text != "":
		return f.text, true
	}
	if bar := FindPagination(root); bar != nil {
		if next := bar.Next(); next != "" {
			return next, true
		}
	}
	return "", false
}

// nextFinder is FindNext's state over its document-order walk of the
// anchors.
type nextFinder struct {
	rel  string // first rel=next target; ends the walk
	text string // first next-text target
}

// walk visits n's subtree in document order and reports whether to go on.
func (f *nextFinder) walk(n *tagtree.Node) bool {
	if n.IsContent() {
		return true
	}
	if n.Tag == "a" {
		if target := attr(n, "href"); target != "" {
			if relHasNext(attr(n, "rel")) {
				f.rel = target
				return false
			}
			if f.text == "" && isNextAnchor(n) {
				f.text = target
			}
		}
	}
	for _, c := range n.Children {
		if !f.walk(c) {
			return false
		}
	}
	return true
}

// relHasNext reports whether a rel attribute value lists the "next"
// keyword: rel is a set of tokens separated by HTML whitespace, matched
// case-insensitively.
func relHasNext(rel string) bool {
	for rel != "" {
		i := strings.IndexAny(rel, htmlSpace)
		tok := rel
		if i < 0 {
			rel = ""
		} else {
			tok, rel = rel[:i], rel[i+1:]
		}
		if strings.EqualFold(tok, "next") {
			return true
		}
	}
	return false
}

// htmlSpace is the HTML whitespace that separates attribute tokens.
const htmlSpace = " \t\n\f\r"

// maxNextText bounds how much normalized anchor text isNextAnchor keeps.
// It exceeds the longest of nextWords, so a text that overflows it can
// only match as a "next ..." phrase, which its first bytes decide.
const maxNextText = 32

// isNextAnchor reports whether an anchor's text announces the next page.
// It decides exactly as matching
// strings.ToLower(strings.Join(strings.Fields(n.InnerText()), " "))
// against nextWords and the "next " prefix would, without building the
// string.
func isNextAnchor(n *tagtree.Node) bool {
	var t nextText
	eachTextRune(n, t.add)
	return t.matches()
}

// nextText is a whitespace-collapsed, lower-cased prefix of anchor text.
type nextText struct {
	buf   [maxNextText]byte
	n     int
	space bool // whitespace seen since the last kept rune
	long  bool // the text did not fit in buf
}

// add appends one rune of the raw text and reports whether there is room
// for more. Whitespace runs become one space between words; an invalid
// byte arrives as utf8.RuneError and is kept as U+FFFD, as strings.ToLower
// writes it.
func (t *nextText) add(r rune) bool {
	if unicode.IsSpace(r) {
		t.space = true
		return true
	}
	var enc [utf8.UTFMax]byte
	w := utf8.EncodeRune(enc[:], unicode.ToLower(r))
	sep := t.space && t.n > 0
	need := w
	if sep {
		need++
	}
	if t.n+need > len(t.buf) {
		t.long = true
		return false
	}
	if sep {
		t.buf[t.n] = ' '
		t.n++
	}
	t.n += copy(t.buf[t.n:], enc[:w])
	t.space = false
	return true
}

// matches reports whether the text is a next-word or any phrase led by
// "next" ("next 20 records", "next 10 hits", ...).
func (t *nextText) matches() bool {
	s := t.buf[:t.n]
	if !t.long && nextWords[string(s)] {
		return true
	}
	return len(s) >= 5 && string(s[:5]) == "next "
}

// eachTextRune calls fn for each rune of n.InnerText(), decoded as ranging
// over that string would (a rune split across content nodes is decoded
// whole, each invalid byte is one utf8.RuneError), until fn returns false.
func eachTextRune(n *tagtree.Node, fn func(rune) bool) {
	var d runeStream
	if d.walk(n, fn) {
		d.flush(fn)
	}
}

// runeStream decodes text that arrives in pieces as one string.
type runeStream struct {
	carry [utf8.UTFMax]byte // the start of a rune the last piece cut off
	n     int
}

func (d *runeStream) walk(n *tagtree.Node, fn func(rune) bool) bool {
	if n.IsContent() {
		return d.feed(n.Text, fn)
	}
	for _, c := range n.Children {
		if !d.walk(c, fn) {
			return false
		}
	}
	return true
}

// feed decodes one piece, reporting false once fn has.
func (d *runeStream) feed(s string, fn func(rune) bool) bool {
	for d.n > 0 {
		for !utf8.FullRune(d.carry[:d.n]) && len(s) > 0 {
			d.carry[d.n] = s[0]
			d.n++
			s = s[1:]
		}
		if !utf8.FullRune(d.carry[:d.n]) {
			return true
		}
		r, size := utf8.DecodeRune(d.carry[:d.n])
		d.n = copy(d.carry[:], d.carry[size:d.n])
		if !fn(r) {
			return false
		}
	}
	for len(s) > 0 {
		if s[0] < utf8.RuneSelf {
			if !fn(rune(s[0])) {
				return false
			}
			s = s[1:]
			continue
		}
		if !utf8.FullRuneInString(s) {
			d.n = copy(d.carry[:], s)
			return true
		}
		r, size := utf8.DecodeRuneInString(s)
		if !fn(r) {
			return false
		}
		s = s[size:]
	}
	return true
}

// flush ends the text: the bytes of a cut-off rune decode one
// utf8.RuneError each.
func (d *runeStream) flush(fn func(rune) bool) {
	for d.n > 0 {
		r, size := utf8.DecodeRune(d.carry[:d.n])
		d.n = copy(d.carry[:], d.carry[size:d.n])
		if !fn(r) {
			return
		}
	}
}

// pageNumber is a page-number reader equal to
// strconv.Atoi(strings.TrimSpace(text)) followed by plausiblePage: an
// optional '+', ASCII digits and surrounding whitespace. A '-' is
// rejected outright, since no negative number is a plausible page.
type pageNumber struct {
	state int8 // one of the num* states
	n     int  // value so far, saturating above 999
}

const (
	numLead     int8 = iota // leading whitespace
	numSign                 // after '+'
	numDigits               // inside the digits
	numTrail                // trailing whitespace
	numRejected             // not a number
)

func (p *pageNumber) add(r rune) bool {
	switch {
	case r >= '0' && r <= '9' && p.state <= numDigits:
		p.state = numDigits
		if p.n <= 999 {
			p.n = p.n*10 + int(r-'0')
		}
	case unicode.IsSpace(r) && p.state != numSign:
		if p.state == numDigits {
			p.state = numTrail
		}
	case r == '+' && p.state == numLead:
		p.state = numSign
	default:
		p.state = numRejected
	}
	return p.state != numRejected
}

func (p *pageNumber) value() (int, bool) {
	if (p.state == numDigits || p.state == numTrail) && plausiblePage(p.n) {
		return p.n, true
	}
	return 0, false
}

// nodePage reads the page number labelling a node's text.
func nodePage(n *tagtree.Node) (int, bool) {
	var p pageNumber
	eachTextRune(n, p.add)
	return p.value()
}

// Pagination is a numbered page bar: links labelled 1, 2, 3... plus the
// current (unlinked) page number.
type Pagination struct {
	// Current is the page number rendered without a link (the page being
	// viewed); 0 when every number is linked.
	Current int
	// Links maps page numbers to hrefs.
	Links map[int]string
}

// Next returns the href of Current+1, or of the smallest numbered link
// when the current page is unknown; "" when absent.
func (p *Pagination) Next() string {
	if p.Current > 0 {
		return p.Links[p.Current+1]
	}
	best := 0
	for n := range p.Links {
		if best == 0 || n < best {
			best = n
		}
	}
	return p.Links[best]
}

// FindPagination locates the densest run of numbered sibling links on the
// page (at least three consecutive numbers), or nil.
func FindPagination(root *tagtree.Node) *Pagination {
	var best *Pagination
	root.Walk(func(n *tagtree.Node) bool {
		if n.IsContent() {
			return true
		}
		p := paginationUnder(n)
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

// paginationUnder inspects one parent's children for a numbered bar. It
// counts first and builds the links map only for a real bar.
func paginationUnder(parent *tagtree.Node) *Pagination {
	s := scanBar(parent)
	if !s.isRun() {
		return nil
	}
	links := make(map[int]string, s.links)
	for _, c := range parent.Children {
		if n, target, ok := numberedLink(c); ok {
			links[n] = target
		}
	}
	return &Pagination{Current: s.current, Links: links}
}

// barScan counts one parent's children as a pagination bar.
type barScan struct {
	linked  pageSet // numbers of the numbered links
	links   int     // how many distinct numbers are linked
	current int     // the last unlinked page number, 0 if none
}

// scanBar reads the numbered links and the current page number among
// parent's children without allocating.
func scanBar(parent *tagtree.Node) barScan {
	var s barScan
	for _, c := range parent.Children {
		switch c.Tag {
		case "a":
			if n, _, ok := numberedLink(c); ok && !s.linked.has(n) {
				s.linked.add(n)
				s.links++
			}
		case "", "b", "strong", "font", "span":
			// Bare text, or the current page wrapped for emphasis.
			if n, ok := nodePage(c); ok {
				s.current = n
			}
		}
	}
	return s
}

// numberedLink reports a child anchor labelled with a plausible page
// number and carrying an href.
func numberedLink(c *tagtree.Node) (n int, target string, ok bool) {
	if c.Tag != "a" {
		return 0, "", false
	}
	target = attr(c, "href")
	if target == "" {
		return 0, "", false
	}
	n, ok = nodePage(c)
	return n, target, ok
}

// isRun requires at least three numbers forming a consecutive run
// (counting the unlinked current page).
func (s *barScan) isRun() bool {
	if s.links == 0 {
		return false
	}
	present := s.linked
	if s.current > 0 {
		present.add(s.current)
	}
	return present.count() >= 3 && present.hasRun3()
}

// plausiblePage bounds page numbers; result sets are not millions of pages
// and years/IDs should not read as pagination.
func plausiblePage(n int) bool { return n >= 1 && n <= 999 }

// pageSet is a bitset over the plausible page numbers.
type pageSet [1000/64 + 1]uint64

func (p *pageSet) add(n int)      { p[n/64] |= 1 << (n % 64) }
func (p *pageSet) has(n int) bool { return n >= 0 && n < 1000 && p[n/64]&(1<<(n%64)) != 0 }

func (p *pageSet) count() int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// hasRun3 reports three consecutive members.
func (p *pageSet) hasRun3() bool {
	for n := 1; n+2 < 1000; n++ {
		if p.has(n) && p.has(n+1) && p.has(n+2) {
			return true
		}
	}
	return false
}

func attr(n *tagtree.Node, name string) string {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}
