package core

import (
	"sync"
	"unsafe"

	"omini/internal/htmlparse"
	"omini/internal/tagtree"
	"omini/internal/tidy"
)

// Page is one page and every buffer its extraction is made of: the body
// bytes and the html string over them, the lexer's attribute arena, the
// raw and normalized token arrays, tidy's open-element stack, and the
// tag tree's node, pointer and text slabs. A Result extracted from a
// page points into that memory: its tree, objects, candidates and
// trace read the page's bytes and slabs.
//
// Ownership. A page from GetPage belongs to its caller until Release.
// Its owner may hold the page, and anything extracted from it, only
// until it calls Release; after that the memory is zeroed and handed to
// the next request. Whatever must outlive a page is copied out before
// Release: a learned rule's separator is cloned where it is learned
// (ExtractPage), signatures and record schemas hold their own strings,
// and the serving layer writes its answer first. Parsing a page again
// (a mismatched rule replay followed by discovery) reuses its slabs, so
// it invalidates the earlier result of the same page: a caller parses a
// page again only once it has dropped that result. A page from NewPage
// that is never released gives its result memory nothing reuses, and so
// do the public Extract entry points: they parse into arenas of their
// own, sized to the page, and take only scratch from the pool.
type Page struct {
	html string
	body []byte
	arenas

	raw, norm []htmlparse.Token
	tidy      tidy.Normalizer
}

// arenas is the memory a result points into besides the body: the
// lexer's attribute arena and the tree's slabs.
type arenas struct {
	lex  htmlparse.Lexer
	tree tagtree.Slabs
}

// NewPage returns a page over html that comes from no pool: unless it
// is released, nothing reuses its memory.
func NewPage(html string) *Page {
	return &Page{html: html}
}

// GetPage returns an empty page from the pool. Fill it with Buffer and
// SetBody, and Release it once nothing holds what was extracted from
// it.
func GetPage() *Page {
	return pagePool.Get().(*Page)
}

var pagePool = sync.Pool{New: func() any { return new(Page) }}

// HTML returns the page's text.
func (p *Page) HTML() string { return p.html }

// Buffer returns the page's body buffer, emptied, for the caller to
// read the page into and pass to SetBody.
func (p *Page) Buffer() []byte { return p.body[:0] }

// SetBody makes body the page's bytes, usually the buffer Buffer
// returned, grown by the read. The html string is those bytes, not a
// copy of them, so the caller must not write to body afterwards.
func (p *Page) SetBody(body []byte) {
	p.body = body
	p.html = unsafe.String(unsafe.SliceData(body), len(body))
}

// The caps on the body and token arrays a released page keeps: past
// them one pathological page would pin its buffers for the process's
// lifetime. Each holds a page of several hundred KB. The lexer, tidy
// and tree memory is capped by its own Reset.
const (
	maxPooledBody   = 1 << 20
	maxPooledTokens = 1 << 15
)

// Release zeroes the page's memory, so a reference that outlived it
// reads zero bytes and empty nodes instead of the page, and returns the
// page to the pool; buffers past their caps are dropped first. The
// caller must hold nothing extracted from the page.
func (p *Page) Release() {
	// The lexer's interning map is keyed by strings of the body, so it
	// is emptied before the body is zeroed.
	p.lex.Reset("")
	p.tree.Reset()
	// Only SetBody writes the buffer, so its length covers every byte.
	clear(p.body)
	p.body, p.html = p.body[:0], ""
	if cap(p.body) > maxPooledBody {
		p.body = nil
	}
	p.releaseScratch()
}

// lend readies a pooled page over html for a public entry point, whose
// result outlives the call: the page's arenas are set aside and
// returned, so the parse makes arenas of its own, sized to html, and
// the result holds nothing another page will reuse.
func (p *Page) lend(html string) arenas {
	kept := p.arenas
	p.arenas = arenas{}
	p.html = html
	return kept
}

// retain is Release for a page lent to a public entry point: the arenas
// its parse made go with the result, the page takes back the arenas
// lend set aside, and only the scratch nothing extracted points into
// (the token arrays, tidy's stack) is zeroed.
func (p *Page) retain(kept arenas) {
	p.html = ""
	p.arenas = kept
	p.releaseScratch()
}

// releaseScratch zeroes the token arrays and tidy's stack and returns
// the page to the pool.
func (p *Page) releaseScratch() {
	p.raw = clearTokens(p.raw)
	p.norm = clearTokens(p.norm)
	p.tidy.Reset()
	pagePool.Put(p)
}

// clearTokens zeroes a token array and returns it emptied, or nil past
// maxPooledTokens. A parse writes tokens only within the length it
// stores (a failed phase drops its array; see Extractor.parse).
func clearTokens(toks []htmlparse.Token) []htmlparse.Token {
	clear(toks)
	if cap(toks) > maxPooledTokens {
		return nil
	}
	return toks[:0]
}
