// Package tidy transforms arbitrary HTML into a well-formed document, in the
// sense of the paper's Section 2.1: every start tag acquires a matching end
// tag, void elements are immediately closed, implied closures (<li><li>,
// <td><td>, unclosed <p>) are made explicit, and overlapping inline elements
// are repaired by close-and-reopen. It plays the role HTML Tidy plays in the
// original Omini system.
package tidy

import (
	"slices"
	"strings"

	"omini/internal/govern"
	"omini/internal/htmlparse"
)

// openElem is one entry on the normalizer's open-element stack.
type openElem struct {
	name  string
	attrs []htmlparse.Attr
}

// normalizer rewrites a token stream into a balanced one.
type normalizer struct {
	out   []htmlparse.Token
	stack []openElem
	// g budgets emitted tokens and nesting depth; err is the sticky
	// governor violation that stops the rewrite. Repairs emit tokens
	// the input never had (format-tag reopening, implied closures), so
	// the output budget is charged here, where those tokens are born —
	// a repair loop that blows up quadratically trips MaxTokens even
	// when the raw input lexed comfortably under it.
	g   *govern.Guard
	err error
}

// NormalizeTokens balances a lexed token stream, appending the result
// to dst (nil for a fresh slice) and returning the extended slice:
// every StartTagToken gets a matching EndTagToken, nesting is proper,
// and the stream has a single root "html" element with all flow
// content inside "body". Comments, doctypes and processing
// instructions are dropped, as the paper's tag tree contains only tag
// and content nodes. Every emitted token is charged against the guard's
// token budget and the open-element stack is checked against its depth
// limit on each push; a nil guard means unlimited, and then
// NormalizeTokens never fails. The output tokens copy the input
// tokens' Data and Attrs headers, so neither toks' nor dst's backing
// array is referenced by the result's contents.
func NormalizeTokens(dst, toks []htmlparse.Token, g *govern.Guard) ([]htmlparse.Token, error) {
	var z Normalizer
	return z.Normalize(dst, toks, g)
}

// Normalizer balances token streams as NormalizeTokens does, keeping
// the memory of its open-element stack from one stream to the next.
// The zero value is ready to use.
type Normalizer struct {
	stack []openElem
}

// Normalize balances toks as NormalizeTokens does, appending to dst.
func (z *Normalizer) Normalize(dst, toks []htmlparse.Token, g *govern.Guard) ([]htmlparse.Token, error) {
	n := &normalizer{out: slices.Grow(dst, len(toks)+8), stack: z.stack[:0], g: g}
	for i := range toks {
		if n.err != nil {
			break
		}
		n.feed(&toks[i])
	}
	if n.err == nil {
		n.closeAll()
	}
	z.stack = n.stack[:0]
	if n.err != nil {
		return nil, n.err
	}
	return n.out, nil
}

// Reset zeroes the stack's memory, dropping its references to the
// last stream's names and attributes, and keeps it for the next
// stream unless it holds more than maxKeptStack elements.
func (z *Normalizer) Reset() {
	clear(z.stack[:cap(z.stack)])
	if cap(z.stack) > maxKeptStack {
		z.stack = nil
	}
}

// maxKeptStack caps the open-element stack a reset Normalizer keeps:
// real pages nest a few dozen deep, and past the cap one adversarially
// deep stream would pin its stack for as long as the Normalizer lives.
const maxKeptStack = 1 << 10

// feed routes one raw token through the normalizer.
func (n *normalizer) feed(tok *htmlparse.Token) {
	switch tok.Type {
	case htmlparse.TextToken:
		n.text(tok)
	case htmlparse.StartTagToken:
		n.start(tok.Data, tok.Attrs)
	case htmlparse.SelfClosingTagToken:
		n.start(tok.Data, tok.Attrs)
		if !IsVoid(tok.Data) {
			n.end(tok.Data)
		}
	case htmlparse.EndTagToken:
		n.end(tok.Data)
	case htmlparse.CommentToken, htmlparse.DoctypeToken, htmlparse.ProcInstToken:
		// Dropped: not part of the tag tree model.
	}
}

// headOnly are elements that belong in <head>.
var headOnly = map[string]bool{
	"title": true, "meta": true, "base": true, "link": true,
	"style": true, "isindex": true,
}

// text appends a text token, opening the structural context it needs.
// Whitespace-only text outside body is discarded rather than forcing a body
// open.
func (n *normalizer) text(tok *htmlparse.Token) {
	if strings.TrimSpace(tok.Data) == "" {
		if len(n.stack) < 2 {
			return
		}
	} else if top := n.top(); top == "" || top == "html" || top == "head" {
		// Text floating in the document skeleton needs a body; text inside
		// any real element (including head elements like <title>) stays put.
		n.ensureFlowContext("")
	}
	if n.err != nil {
		return
	}
	if err := n.g.Tokens(1); err != nil {
		n.err = err
		return
	}
	n.out = append(n.out, htmlparse.Token{
		Type:   htmlparse.TextToken,
		Data:   tok.Data,
		Offset: tok.Offset,
	})
}

// start handles a start tag: structural context, implied closures, push.
func (n *normalizer) start(name string, attrs []htmlparse.Attr) {
	switch name {
	case "html":
		if n.has("html") {
			return // duplicate <html>
		}
		n.push(name, attrs)
		return
	case "head":
		n.ensureOpen("html", nil)
		if n.has("head") || n.has("body") {
			return
		}
		n.push(name, attrs)
		return
	case "body":
		n.ensureOpen("html", nil)
		if n.has("body") {
			return
		}
		n.closeUpTo("html")
		n.push(name, attrs)
		return
	}
	n.ensureFlowContext(name)

	// Apply implied closures: a new <li> closes an open <li>, etc. A run
	// of open inline formatting elements does not shield the target: in
	// "<td><a href=x>title<td>" the second cell closes both the dangling
	// link and the first cell, as browsers do.
	for {
		top := n.top()
		if top == "" {
			break
		}
		if implicitClose(top, name) {
			n.pop()
			continue
		}
		if formatTags[top] && n.impliedTargetBelowFormatting(name) {
			n.pop()
			continue
		}
		break
	}

	if IsVoid(name) {
		// Emit <x></x> immediately; void elements never stay open.
		n.emitStart(name, attrs)
		n.emitEnd(name)
		return
	}
	n.push(name, attrs)
}

// end handles an end tag: find the matching open element, close everything
// above it, repairing inline overlaps by reopening formatting elements.
func (n *normalizer) end(name string) {
	if IsVoid(name) {
		return // </br> etc. — the start already emitted its close
	}
	if name == "html" || name == "body" {
		// Keep the document skeleton open until end of input so trailing
		// content (and a second <html> in concatenated documents) lands in
		// the same root instead of creating a sibling. Everything above the
		// skeleton element is closed now.
		if idx := n.find(name); idx >= 0 {
			for len(n.stack) > idx+1 {
				n.pop()
			}
		}
		return
	}
	idx := n.find(name)
	if idx < 0 {
		return // unmatched end tag: drop it
	}
	// Collect formatting elements that would be improperly closed, to
	// reopen them after (the <b><i></b></i> repair).
	var reopen []openElem
	for i := len(n.stack) - 1; i > idx; i-- {
		n.g.Poll()
		if formatTags[n.stack[i].name] {
			reopen = append(reopen, n.stack[i])
		}
	}
	for len(n.stack) > idx {
		n.pop()
	}
	// Reopen in original (outer-to-inner) order.
	for i := len(reopen) - 1; i >= 0; i-- {
		n.push(reopen[i].name, reopen[i].attrs)
	}
}

// impliedTargetBelowFormatting reports whether, beneath the run of open
// inline formatting elements on top of the stack, there is an element the
// incoming tag implicitly closes.
func (n *normalizer) impliedTargetBelowFormatting(name string) bool {
	for i := len(n.stack) - 1; i >= 0; i-- {
		n.g.Poll()
		el := n.stack[i].name
		if formatTags[el] {
			continue
		}
		return implicitClose(el, name)
	}
	return false
}

// find returns the stack index of the nearest open element with the given
// name, or -1. The search stops at scope boundaries (a </li> never matches
// an <li> outside the current list) and, for non-structural tags, at table
// cell boundaries.
func (n *normalizer) find(name string) int {
	for i := len(n.stack) - 1; i >= 0; i-- {
		n.g.Poll()
		if n.stack[i].name == name {
			return i
		}
		if boundsClose(name, n.stack[i].name) {
			return -1
		}
	}
	return -1
}

// ensureFlowContext opens html and body as needed so flow content has a
// home. Head-only elements are routed into head when body has not started.
func (n *normalizer) ensureFlowContext(name string) {
	n.ensureOpen("html", nil)
	if headOnly[name] && !n.has("body") {
		n.ensureOpen("head", nil)
		return
	}
	if name == "script" && !n.has("body") && n.has("head") {
		return // scripts in an open head stay in head
	}
	if !n.has("body") {
		n.closeUpTo("html")
		n.push("body", nil)
	}
}

// ensureOpen opens the named element at the appropriate level if it is not
// already open.
func (n *normalizer) ensureOpen(name string, attrs []htmlparse.Attr) {
	if !n.has(name) {
		n.push(name, attrs)
	}
}

// closeUpTo pops elements until the named element is on top of the stack.
func (n *normalizer) closeUpTo(name string) {
	for len(n.stack) > 0 && n.top() != name {
		n.pop()
	}
}

// closeAll closes every element remaining open at end of input.
func (n *normalizer) closeAll() {
	for len(n.stack) > 0 {
		n.pop()
	}
}

func (n *normalizer) has(name string) bool {
	for i := range n.stack {
		n.g.Poll()
		if n.stack[i].name == name {
			return true
		}
	}
	return false
}

func (n *normalizer) top() string {
	if len(n.stack) == 0 {
		return ""
	}
	return n.stack[len(n.stack)-1].name
}

func (n *normalizer) push(name string, attrs []htmlparse.Attr) {
	if n.err != nil {
		return
	}
	if err := n.g.Depth(len(n.stack) + 1); err != nil {
		n.err = err
		return
	}
	n.stack = append(n.stack, openElem{name: name, attrs: attrs})
	n.emitStart(name, attrs)
}

func (n *normalizer) pop() {
	top := n.stack[len(n.stack)-1]
	n.stack = n.stack[:len(n.stack)-1]
	n.emitEnd(top.name)
}

func (n *normalizer) emitStart(name string, attrs []htmlparse.Attr) {
	if n.err != nil {
		return
	}
	if err := n.g.Tokens(1); err != nil {
		n.err = err
		return
	}
	n.out = append(n.out, htmlparse.Token{
		Type:  htmlparse.StartTagToken,
		Data:  name,
		Attrs: attrs,
	})
}

func (n *normalizer) emitEnd(name string) {
	if n.err != nil {
		return
	}
	if err := n.g.Tokens(1); err != nil {
		n.err = err
		return
	}
	n.out = append(n.out, htmlparse.Token{
		Type: htmlparse.EndTagToken,
		Data: name,
	})
}

// Serialize renders a token stream back to HTML text. Text content and
// attribute values are re-escaped, so the output of NormalizeTokens
// serializes to a well-formed document in the paper's sense.
func Serialize(toks []htmlparse.Token) string {
	var b strings.Builder
	for i := range toks {
		tok := &toks[i]
		if tok.Type == htmlparse.TextToken {
			b.WriteString(htmlparse.EscapeText(tok.Data))
			continue
		}
		b.WriteString(tok.String())
	}
	return b.String()
}
