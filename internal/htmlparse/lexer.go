package htmlparse

import (
	"slices"
	"strings"

	"omini/internal/govern"
)

// rawTextTags are elements whose content is raw character data: the lexer
// must not interpret '<' inside them as markup until the matching close tag.
var rawTextTags = map[string]bool{
	"script":   true,
	"style":    true,
	"textarea": true,
	"title":    true,
	"xmp":      true,
}

// Lexer tokenizes an HTML document. It never fails: any input produces a
// token stream (garbage in, best-effort tokens out), which is what a
// normalizer for real web pages requires. Reset points it at a document;
// the zero value lexes the empty one.
type Lexer struct {
	src string
	pos int
	// rawUntil, when non-empty, is the tag name whose closing tag ends a
	// raw-text region (script/style/...).
	rawUntil string
	// attrs is a shared attribute arena: every token's Attrs is a capped
	// sub-slice of it, so a page costs a few attribute allocations instead
	// of one (or more) per tag, and none once Reset reuses it. Earlier
	// tokens keep their backing array when the arena grows.
	attrs []Attr
	// lowered interns lower-cased copies of names that appear upper-cased
	// in the source, so <TD> pays for one ToLower per distinct spelling
	// instead of one per occurrence. Lazily allocated: fully lower-case
	// documents never touch it.
	lowered map[string]string
}

// Tokenize lexes the whole of src under a resource guard, appending the
// tokens to dst (nil for a fresh slice) and returning the extended
// slice: the input size is checked up front and every produced token
// is charged against the guard's token budget (which also polls the
// page context). A nil guard means unlimited, and then Tokenize never
// fails. The tokens reference src and the lexer's own attribute arena,
// never dst's backing array, so a caller may reuse that array once it
// is done with the tokens.
func Tokenize(dst []Token, src string, g *govern.Guard) ([]Token, error) {
	var lx Lexer
	lx.Reset(src)
	return lx.Tokenize(dst, g)
}

// Reset points the lexer at src from its start. The attribute arena
// keeps its memory for src's attributes unless it holds more than
// maxKeptAttrs of them, so a lexer reused page after page stops
// allocating its arena, and the map of interned lower-case names is
// emptied for reuse unless it held more than maxInterned of them.
// Reset zeroes the arena first: every token lexed before it loses its
// attributes, and src's overwrite that memory, so the caller must be
// done with them.
func (lx *Lexer) Reset(src string) {
	clear(lx.attrs)
	attrs := lx.attrs[:0]
	if cap(attrs) > maxKeptAttrs {
		attrs = nil
	}
	lowered := lx.lowered
	if len(lowered) > maxInterned {
		lowered = nil
	}
	clear(lowered)
	*lx = Lexer{src: src, attrs: attrs, lowered: lowered}
}

// maxKeptAttrs caps the attribute arena a reset lexer keeps: past it
// one pathological page would pin its arena for as long as the lexer
// lives. It holds a page of several hundred KB. maxInterned bounds the
// interned names a reset lexer keeps the map of: a page spells a few
// dozen tag and attribute names.
const (
	maxKeptAttrs = 1 << 14
	maxInterned  = 256
)

// Tokenize lexes the rest of the lexer's input as the package-level
// Tokenize lexes src, appending to dst.
func (lx *Lexer) Tokenize(dst []Token, g *govern.Guard) ([]Token, error) {
	if err := g.Input(len(lx.src)); err != nil {
		return nil, err
	}
	// A typical page has roughly one token per 20 bytes, and at least
	// one attribute per 200: an arena that starts at one per 128 grows
	// once or twice instead of from nothing.
	toks := slices.Grow(dst, len(lx.src)/20+8)
	lx.attrs = slices.Grow(lx.attrs, len(lx.src)/128)
	for {
		tok, ok := lx.Next()
		if !ok {
			return toks, nil
		}
		if err := g.Tokens(1); err != nil {
			return nil, err
		}
		toks = append(toks, tok)
	}
}

// lower returns the lower-cased form of an ASCII name, without allocating
// when the name is already lower-case, and interning the lowered copy
// otherwise.
func (lx *Lexer) lower(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	if lo, ok := lx.lowered[s]; ok {
		return lo
	}
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	lo := string(b)
	if lx.lowered == nil {
		lx.lowered = make(map[string]string, 8)
	}
	lx.lowered[s] = lo
	return lo
}

// Next returns the next token and true, or a zero Token and false at the end
// of input.
func (lx *Lexer) Next() (Token, bool) {
	if lx.pos >= len(lx.src) {
		return Token{}, false
	}
	if lx.rawUntil != "" {
		return lx.nextRaw(), true
	}
	start := lx.pos
	if lx.src[lx.pos] == '<' {
		if tok, ok := lx.lexMarkup(); ok {
			if tok.Type == StartTagToken && rawTextTags[tok.Data] {
				lx.rawUntil = tok.Data
			}
			return tok, true
		}
		// A lone '<' that does not begin markup is literal text.
		lx.pos = start + 1
	}
	return lx.lexText(start), true
}

// lexText consumes character data up to the next markup-looking '<'.
func (lx *Lexer) lexText(start int) Token {
	for lx.pos < len(lx.src) {
		i := strings.IndexByte(lx.src[lx.pos:], '<')
		if i < 0 {
			lx.pos = len(lx.src)
			break
		}
		lx.pos += i
		if lx.looksLikeMarkup(lx.pos) {
			break
		}
		lx.pos++ // stray '<' inside text
	}
	return Token{
		Type:   TextToken,
		Data:   UnescapeText(lx.src[start:lx.pos]),
		Offset: start,
	}
}

// nextRaw consumes the raw content of a script/style/... element, or the
// closing tag that terminates it.
func (lx *Lexer) nextRaw() Token {
	name := lx.rawUntil
	start := lx.pos
	closer := "</" + name
	rest := lx.src[lx.pos:]
	idx := indexFold(rest, closer)
	if idx < 0 {
		// Unterminated raw element: the remainder is its content.
		lx.pos = len(lx.src)
		lx.rawUntil = ""
		return Token{Type: TextToken, Data: rest, Offset: start}
	}
	if idx > 0 {
		lx.pos += idx
		return Token{Type: TextToken, Data: rest[:idx], Offset: start}
	}
	// At the closing tag itself.
	lx.rawUntil = ""
	end := strings.IndexByte(rest, '>')
	if end < 0 {
		lx.pos = len(lx.src)
	} else {
		lx.pos += end + 1
	}
	return Token{Type: EndTagToken, Data: name, Offset: start}
}

// looksLikeMarkup reports whether the '<' at offset i plausibly begins a tag,
// comment, doctype, or processing instruction.
func (lx *Lexer) looksLikeMarkup(i int) bool {
	if i+1 >= len(lx.src) {
		return false
	}
	c := lx.src[i+1]
	switch {
	case isLetter(c):
		return true
	case c == '/':
		return i+2 < len(lx.src) && isLetter(lx.src[i+2])
	case c == '!', c == '?':
		return true
	default:
		return false
	}
}

// lexMarkup lexes a construct beginning with '<'. It returns ok=false if the
// input at pos turns out not to be markup (the caller then treats the '<' as
// text).
func (lx *Lexer) lexMarkup() (Token, bool) {
	start := lx.pos
	s := lx.src
	i := start + 1
	if i >= len(s) {
		return Token{}, false
	}
	switch {
	case s[i] == '!':
		return lx.lexBang(start), true
	case s[i] == '?':
		end := strings.Index(s[i:], ">")
		if end < 0 {
			lx.pos = len(s)
			return Token{Type: ProcInstToken, Data: s[i+1:], Offset: start}, true
		}
		data := strings.TrimSuffix(s[i+1:i+end], "?")
		lx.pos = i + end + 1
		return Token{Type: ProcInstToken, Data: data, Offset: start}, true
	case s[i] == '/':
		i++
		nameStart := i
		for i < len(s) && isNameChar(s[i]) {
			i++
		}
		if i == nameStart {
			return Token{}, false
		}
		name := lx.lower(s[nameStart:i])
		// Skip anything up to '>' (attributes on end tags are invalid but
		// occur in the wild).
		for i < len(s) && s[i] != '>' {
			i++
		}
		if i < len(s) {
			i++
		}
		lx.pos = i
		return Token{Type: EndTagToken, Data: name, Offset: start}, true
	case isLetter(s[i]):
		return lx.lexStartTag(start), true
	default:
		return Token{}, false
	}
}

// lexBang lexes comments and doctype declarations.
func (lx *Lexer) lexBang(start int) Token {
	s := lx.src
	i := start + 2 // past "<!"
	if strings.HasPrefix(s[i:], "--") {
		i += 2
		end := strings.Index(s[i:], "-->")
		if end < 0 {
			lx.pos = len(s)
			return Token{Type: CommentToken, Data: s[i:], Offset: start}
		}
		lx.pos = i + end + 3
		return Token{Type: CommentToken, Data: s[i : i+end], Offset: start}
	}
	end := strings.IndexByte(s[i:], '>')
	if end < 0 {
		lx.pos = len(s)
		return Token{Type: DoctypeToken, Data: s[i:], Offset: start}
	}
	lx.pos = i + end + 1
	return Token{Type: DoctypeToken, Data: s[i : i+end], Offset: start}
}

// lexStartTag lexes a start tag with attributes, beginning at '<'.
func (lx *Lexer) lexStartTag(start int) Token {
	s := lx.src
	i := start + 1
	nameStart := i
	for i < len(s) && isNameChar(s[i]) {
		i++
	}
	tok := Token{
		Type:   StartTagToken,
		Data:   lx.lower(s[nameStart:i]),
		Offset: start,
	}
	attrStart := len(lx.attrs)
	for {
		// Skip whitespace between attributes.
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] == '>' {
			i++
			break
		}
		if s[i] == '/' {
			// Possible self-closing marker.
			j := i + 1
			for j < len(s) && isSpace(s[j]) {
				j++
			}
			if j < len(s) && s[j] == '>' {
				tok.Type = SelfClosingTagToken
				i = j + 1
				break
			}
			i++ // stray slash, skip
			continue
		}
		var attr Attr
		attr, i = lx.lexAttr(s, i)
		if attr.Name != "" {
			lx.attrs = append(lx.attrs, attr)
		}
	}
	if end := len(lx.attrs); end > attrStart {
		// Cap the sub-slice so later arena appends can never alias into
		// this token's attributes.
		tok.Attrs = lx.attrs[attrStart:end:end]
	}
	lx.pos = i
	return tok
}

// lexAttr lexes one attribute starting at i and returns it with the new
// position. Accepts name, name=value, name="value", and name='value'.
func (lx *Lexer) lexAttr(s string, i int) (Attr, int) {
	nameStart := i
	for i < len(s) && !isSpace(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
		i++
	}
	name := lx.lower(s[nameStart:i])
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	if i >= len(s) || s[i] != '=' {
		return Attr{Name: name}, i
	}
	i++ // past '='
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	if i >= len(s) {
		return Attr{Name: name}, i
	}
	var val string
	if q := s[i]; q == '"' || q == '\'' {
		i++
		end := strings.IndexByte(s[i:], q)
		if end < 0 {
			val = s[i:]
			i = len(s)
		} else {
			val = s[i : i+end]
			i += end + 1
		}
	} else {
		valStart := i
		for i < len(s) && !isSpace(s[i]) && s[i] != '>' {
			i++
		}
		val = s[valStart:i]
	}
	return Attr{Name: name, Value: UnescapeText(val)}, i
}

// indexFold returns the index of the first case-insensitive occurrence of
// needle in haystack, or -1. needle must be ASCII.
func indexFold(haystack, needle string) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(haystack); i++ {
		if equalFoldASCII(haystack[i:i+n], needle) {
			return i
		}
	}
	return -1
}

func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func isLetter(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isLetter(c) || ('0' <= c && c <= '9') || c == '-' || c == '_' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
