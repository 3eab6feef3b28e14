package htmlparse

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// tokenize lexes src with no guard, failing the test on an error a nil
// guard must never produce.
func tokenize(t testing.TB, src string) []Token {
	t.Helper()
	toks, err := Tokenize(src, nil)
	if err != nil {
		t.Fatalf("Tokenize(%q, nil): %v", src, err)
	}
	return toks
}

func tokenTypes(toks []Token) []TokenType {
	out := make([]TokenType, len(toks))
	for i, t := range toks {
		out[i] = t.Type
	}
	return out
}

func TestTokenizeSimpleDocument(t *testing.T) {
	toks := tokenize(t, `<html><body><p>Hello</p></body></html>`)
	want := []TokenType{
		StartTagToken, StartTagToken, StartTagToken,
		TextToken,
		EndTagToken, EndTagToken, EndTagToken,
	}
	if got := tokenTypes(toks); !reflect.DeepEqual(got, want) {
		t.Fatalf("token types = %v, want %v", got, want)
	}
	if toks[3].Data != "Hello" {
		t.Errorf("text = %q, want %q", toks[3].Data, "Hello")
	}
}

func TestTokenizeTagNamesLowercased(t *testing.T) {
	toks := tokenize(t, `<TABLE><TR><TD>x</TD></TR></TABLE>`)
	for _, tok := range toks {
		if tok.Type == TextToken {
			continue
		}
		if tok.Data != strings.ToLower(tok.Data) {
			t.Errorf("tag %q not lower-cased", tok.Data)
		}
	}
	if toks[0].Data != "table" {
		t.Errorf("first tag = %q, want table", toks[0].Data)
	}
}

func TestTokenizeAttributes(t *testing.T) {
	tests := []struct {
		name string
		give string
		want []Attr
	}{
		{
			name: "double quoted",
			give: `<a href="http://x.com/a?b=1&amp;c=2">`,
			want: []Attr{{Name: "href", Value: "http://x.com/a?b=1&c=2"}},
		},
		{
			name: "single quoted",
			give: `<a href='x y'>`,
			want: []Attr{{Name: "href", Value: "x y"}},
		},
		{
			name: "unquoted",
			give: `<table border=1 width=100%>`,
			want: []Attr{{Name: "border", Value: "1"}, {Name: "width", Value: "100%"}},
		},
		{
			name: "bare attribute",
			give: `<input disabled>`,
			want: []Attr{{Name: "disabled", Value: ""}},
		},
		{
			name: "mixed case names",
			give: `<img SRC="a.gif" Alt="pic">`,
			want: []Attr{{Name: "src", Value: "a.gif"}, {Name: "alt", Value: "pic"}},
		},
		{
			name: "spaces around equals",
			give: `<td colspan = "2">`,
			want: []Attr{{Name: "colspan", Value: "2"}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks := tokenize(t, tt.give)
			if len(toks) != 1 {
				t.Fatalf("got %d tokens, want 1", len(toks))
			}
			if !reflect.DeepEqual(toks[0].Attrs, tt.want) {
				t.Errorf("attrs = %+v, want %+v", toks[0].Attrs, tt.want)
			}
		})
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := tokenize(t, `<br/><hr /><img src="x.gif"/>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	for _, tok := range toks {
		if tok.Type != SelfClosingTagToken {
			t.Errorf("%s: type = %v, want self-closing", tok.Data, tok.Type)
		}
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := tokenize(t, `<!DOCTYPE html><!-- a comment --><p>x</p>`)
	if toks[0].Type != DoctypeToken {
		t.Errorf("first token = %v, want doctype", toks[0].Type)
	}
	if toks[1].Type != CommentToken || toks[1].Data != " a comment " {
		t.Errorf("comment = %v %q", toks[1].Type, toks[1].Data)
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	src := `<script>if (a < b) { x = "<table>"; }</script><p>after</p>`
	toks := tokenize(t, src)
	if len(toks) < 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "script" {
		t.Fatalf("first = %v %q", toks[0].Type, toks[0].Data)
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, `x = "<table>"`) {
		t.Errorf("script body not raw: %q", toks[1].Data)
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Errorf("script not closed: %v %q", toks[2].Type, toks[2].Data)
	}
}

func TestTokenizeUnterminatedScript(t *testing.T) {
	toks := tokenize(t, `<script>var x = 1;`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if toks[1].Type != TextToken || toks[1].Data != "var x = 1;" {
		t.Errorf("body = %v %q", toks[1].Type, toks[1].Data)
	}
}

func TestTokenizeStrayAngleBracket(t *testing.T) {
	toks := tokenize(t, `<p>3 < 5 and 7 > 2</p>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[1].Data != "3 < 5 and 7 > 2" {
		t.Errorf("text = %q", toks[1].Data)
	}
}

func TestTokenizeEndTagWithAttrs(t *testing.T) {
	toks := tokenize(t, `</font color="red">`)
	if len(toks) != 1 || toks[0].Type != EndTagToken || toks[0].Data != "font" {
		t.Fatalf("got %v", toks)
	}
}

func TestTokenizeEmptyAndGarbage(t *testing.T) {
	if toks := tokenize(t, ""); len(toks) != 0 {
		t.Errorf("empty input produced %d tokens", len(toks))
	}
	// Garbage must not panic and must preserve text.
	toks := tokenize(t, "<<<>>><><")
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == TextToken {
			text.WriteString(tok.Data)
		}
	}
	if !strings.Contains(text.String(), "<") {
		t.Errorf("stray brackets lost: %q", text.String())
	}
}

func TestTokenAttrLookup(t *testing.T) {
	toks := tokenize(t, `<a href="x" class="y">`)
	if v, ok := toks[0].Attr("HREF"); !ok || v != "x" {
		t.Errorf("Attr(HREF) = %q, %v", v, ok)
	}
	if _, ok := toks[0].Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
}

func TestTokenString(t *testing.T) {
	tests := []struct {
		give Token
		want string
	}{
		{Token{Type: StartTagToken, Data: "td", Attrs: []Attr{{Name: "colspan", Value: "2"}}}, `<td colspan="2">`},
		{Token{Type: EndTagToken, Data: "td"}, `</td>`},
		{Token{Type: SelfClosingTagToken, Data: "br"}, `<br/>`},
		{Token{Type: TextToken, Data: "hi"}, "hi"},
		{Token{Type: CommentToken, Data: "c"}, "<!--c-->"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	src := `<p>ab</p><b>c</b>`
	toks := tokenize(t, src)
	for _, tok := range toks {
		if tok.Offset < 0 || tok.Offset >= len(src) {
			t.Errorf("offset %d out of range for %v", tok.Offset, tok)
		}
	}
	if toks[0].Offset != 0 || toks[1].Offset != 3 {
		t.Errorf("offsets = %d, %d", toks[0].Offset, toks[1].Offset)
	}
}

// Property: tokenizing never panics and text tokens never contain markup
// that the lexer recognized elsewhere; total consumed text is bounded.
func TestTokenizeNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		toks := tokenize(t, s)
		for _, tok := range toks {
			if tok.Type == StartTagToken && tok.Data == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenTypeString(t *testing.T) {
	names := map[TokenType]string{
		TextToken:           "text",
		StartTagToken:       "start-tag",
		EndTagToken:         "end-tag",
		SelfClosingTagToken: "self-closing-tag",
		CommentToken:        "comment",
		DoctypeToken:        "doctype",
		ProcInstToken:       "proc-inst",
		TokenType(99):       "TokenType(99)",
	}
	for tt, want := range names {
		if got := tt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tt), got, want)
		}
	}
}

func TestTokenizeProcessingInstruction(t *testing.T) {
	toks := tokenize(t, `<?xml version="1.0"?><root>x</root>`)
	if toks[0].Type != ProcInstToken {
		t.Fatalf("first token = %v", toks[0].Type)
	}
	if !strings.Contains(toks[0].Data, "version") {
		t.Errorf("proc-inst data = %q", toks[0].Data)
	}
	// Unterminated processing instruction consumes the rest.
	toks = tokenize(t, `<?php echo`)
	if len(toks) != 1 || toks[0].Type != ProcInstToken {
		t.Errorf("unterminated PI tokens = %v", toks)
	}
}

func TestTokenizeUnterminatedConstructs(t *testing.T) {
	for _, src := range []string{
		`<!-- never closed`,
		`<!DOCTYPE html`,
		`<a href="unclosed`,
		`<div`,
		`</`,
		`<`,
	} {
		toks := tokenize(t, src) // must not panic or loop
		_ = toks
	}
}

func TestIndexFold(t *testing.T) {
	tests := []struct {
		haystack, needle string
		want             int
	}{
		{"abcDEF", "def", 3},
		{"abc", "ABC", 0},
		{"abc", "zzz", -1},
		{"", "", 0},
		{"short", "longer-than-haystack", -1},
	}
	for _, tt := range tests {
		if got := indexFold(tt.haystack, tt.needle); got != tt.want {
			t.Errorf("indexFold(%q, %q) = %d, want %d", tt.haystack, tt.needle, got, tt.want)
		}
	}
}
