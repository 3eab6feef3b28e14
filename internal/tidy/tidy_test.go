package tidy

import (
	"strings"
	"testing"
	"testing/quick"

	"omini/internal/htmlparse"
)

// normalize lexes and balances src with no guard, failing the test on an
// error a nil guard must never produce.
func normalize(t testing.TB, src string) []htmlparse.Token {
	t.Helper()
	raw, err := htmlparse.Tokenize(src, nil)
	if err != nil {
		t.Fatalf("Tokenize(%.40q): %v", src, err)
	}
	toks, err := NormalizeTokens(raw, nil)
	if err != nil {
		t.Fatalf("NormalizeTokens(%.40q): %v", src, err)
	}
	return toks
}

// normalizeHTML is Serialize(NormalizeTokens(Tokenize(src, nil), nil)):
// src as a well-formed document.
func normalizeHTML(t testing.TB, src string) string {
	t.Helper()
	return Serialize(normalize(t, src))
}

// balanced verifies that every start tag has a matching end tag with proper
// nesting, i.e. the stream is well formed in the paper's sense.
func balanced(t *testing.T, toks []htmlparse.Token) {
	t.Helper()
	var stack []string
	for _, tok := range toks {
		switch tok.Type {
		case htmlparse.StartTagToken:
			stack = append(stack, tok.Data)
		case htmlparse.EndTagToken:
			if len(stack) == 0 {
				t.Fatalf("end tag </%s> with empty stack", tok.Data)
			}
			top := stack[len(stack)-1]
			if top != tok.Data {
				t.Fatalf("end tag </%s> does not match open <%s>", tok.Data, top)
			}
			stack = stack[:len(stack)-1]
		case htmlparse.SelfClosingTagToken:
			t.Fatalf("normalized stream contains self-closing token %v", tok)
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed elements remain: %v", stack)
	}
}

func TestNormalizeBalancesEverything(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"well formed", `<html><head><title>t</title></head><body><p>x</p></body></html>`},
		{"unclosed paragraphs", `<html><body><p>one<p>two<p>three</body></html>`},
		{"unclosed list items", `<html><body><ul><li>a<li>b<li>c</ul></body></html>`},
		{"unclosed table cells", `<html><body><table><tr><td>a<td>b<tr><td>c</table></body></html>`},
		{"void elements", `<html><body>a<br>b<hr><img src="x.gif"></body></html>`},
		{"self closing", `<html><body>a<br/>b</body></html>`},
		{"overlap", `<html><body><b>bold <i>both</b> italic</i></body></html>`},
		{"missing end tags", `<html><body><div><span>x`},
		{"stray end tags", `</td></table><html><body>x</b></i></body></html>`},
		{"no html wrapper", `<table><tr><td>x</td></tr></table>`},
		{"bare text", `just text`},
		{"dl runs", `<html><body><dl><dt>a<dd>1<dt>b<dd>2</dl></body></html>`},
		{"nested lists", `<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>`},
		{"empty", ``},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			balanced(t, normalize(t, tt.give))
		})
	}
}

// countTags returns per-tag start counts in a token stream.
func countTags(toks []htmlparse.Token) map[string]int {
	counts := make(map[string]int)
	for _, tok := range toks {
		if tok.Type == htmlparse.StartTagToken {
			counts[tok.Data]++
		}
	}
	return counts
}

func TestImplicitLiClosure(t *testing.T) {
	toks := normalize(t, `<ul><li>a<li>b<li>c</ul>`)
	if got := countTags(toks)["li"]; got != 3 {
		t.Errorf("li count = %d, want 3", got)
	}
	// Ensure the lis are siblings: nesting depth under ul should be 1.
	depth, maxLiDepth := 0, 0
	liDepth := -1
	for _, tok := range toks {
		switch tok.Type {
		case htmlparse.StartTagToken:
			depth++
			if tok.Data == "li" {
				if liDepth == -1 {
					liDepth = depth
				}
				if depth > maxLiDepth {
					maxLiDepth = depth
				}
			}
		case htmlparse.EndTagToken:
			depth--
		}
	}
	if maxLiDepth != liDepth {
		t.Errorf("li elements nested (depths %d vs %d), want siblings", maxLiDepth, liDepth)
	}
}

func TestNestedListKeepsInnerItems(t *testing.T) {
	toks := normalize(t, `<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>`)
	if got := countTags(toks)["li"]; got != 4 {
		t.Errorf("li count = %d, want 4", got)
	}
	if got := countTags(toks)["ul"]; got != 2 {
		t.Errorf("ul count = %d, want 2", got)
	}
}

func TestTableCellClosure(t *testing.T) {
	toks := normalize(t, `<table><tr><td>a<td>b<tr><td>c</table>`)
	counts := countTags(toks)
	if counts["tr"] != 2 || counts["td"] != 3 {
		t.Errorf("tr=%d td=%d, want tr=2 td=3", counts["tr"], counts["td"])
	}
}

func TestVoidElementsImmediatelyClosed(t *testing.T) {
	toks := normalize(t, `<body>a<br>b<hr>c</body>`)
	for i, tok := range toks {
		if tok.Type == htmlparse.StartTagToken && IsVoid(tok.Data) {
			if i+1 >= len(toks) || toks[i+1].Type != htmlparse.EndTagToken || toks[i+1].Data != tok.Data {
				t.Errorf("void <%s> not immediately followed by its end tag", tok.Data)
			}
		}
	}
}

func TestEndBrIgnored(t *testing.T) {
	toks := normalize(t, `<body>a<br></br>b</body>`)
	if got := countTags(toks)["br"]; got != 1 {
		t.Errorf("br count = %d, want 1", got)
	}
	balanced(t, toks)
}

func TestOverlapRepairReopensFormatting(t *testing.T) {
	toks := normalize(t, `<body><b>bold <i>both</b> italic</i></body>`)
	balanced(t, toks)
	if got := countTags(toks)["i"]; got != 2 {
		t.Errorf("i count = %d, want 2 (closed and reopened)", got)
	}
	// The text " italic" must still be inside an <i>.
	var inI int
	found := false
	for _, tok := range toks {
		switch {
		case tok.Type == htmlparse.StartTagToken && tok.Data == "i":
			inI++
		case tok.Type == htmlparse.EndTagToken && tok.Data == "i":
			inI--
		case tok.Type == htmlparse.TextToken && strings.Contains(tok.Data, "italic"):
			found = true
			if inI == 0 {
				t.Error("'italic' text not inside <i> after repair")
			}
		}
	}
	if !found {
		t.Fatal("text lost during repair")
	}
}

func TestSynthesizesHTMLAndBody(t *testing.T) {
	toks := normalize(t, `<table><tr><td>x</td></tr></table>`)
	counts := countTags(toks)
	if counts["html"] != 1 || counts["body"] != 1 {
		t.Errorf("html=%d body=%d, want 1 each", counts["html"], counts["body"])
	}
	if toks[0].Data != "html" || toks[1].Data != "body" {
		t.Errorf("stream starts %q %q, want html body", toks[0].Data, toks[1].Data)
	}
}

func TestHeadContentRouting(t *testing.T) {
	toks := normalize(t, `<title>t</title><p>body text</p>`)
	// title must be inside head, p inside body.
	var stack []string
	containerOf := make(map[string]string)
	for _, tok := range toks {
		switch tok.Type {
		case htmlparse.StartTagToken:
			if tok.Data == "title" || tok.Data == "p" {
				containerOf[tok.Data] = strings.Join(stack, "/")
			}
			stack = append(stack, tok.Data)
		case htmlparse.EndTagToken:
			stack = stack[:len(stack)-1]
		}
	}
	if !strings.Contains(containerOf["title"], "head") {
		t.Errorf("title container = %q, want under head", containerOf["title"])
	}
	if !strings.Contains(containerOf["p"], "body") {
		t.Errorf("p container = %q, want under body", containerOf["p"])
	}
}

func TestDuplicateHTMLAndBodyIgnored(t *testing.T) {
	toks := normalize(t, `<html><body>a</body></html><html><body>b</body></html>`)
	balanced(t, toks)
	counts := countTags(toks)
	if counts["html"] != 1 {
		t.Errorf("html count = %d, want 1", counts["html"])
	}
}

func TestParagraphClosedByTable(t *testing.T) {
	toks := normalize(t, `<body><p>intro<table><tr><td>x</td></tr></table></body>`)
	// The table must not be inside the p.
	var stack []string
	for _, tok := range toks {
		switch tok.Type {
		case htmlparse.StartTagToken:
			if tok.Data == "table" {
				for _, s := range stack {
					if s == "p" {
						t.Fatal("table nested inside unclosed p")
					}
				}
			}
			stack = append(stack, tok.Data)
		case htmlparse.EndTagToken:
			stack = stack[:len(stack)-1]
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<html><body><p>a &amp; b</p><table border="1"><tr><td>x</td></tr></table></body></html>`
	once := normalizeHTML(t, src)
	twice := normalizeHTML(t, once)
	if once != twice {
		t.Errorf("normalization not idempotent:\n once: %s\ntwice: %s", once, twice)
	}
}

func TestCommentsAndDoctypeDropped(t *testing.T) {
	toks := normalize(t, `<!DOCTYPE html><!-- hidden --><html><body>x</body></html>`)
	for _, tok := range toks {
		if tok.Type == htmlparse.CommentToken || tok.Type == htmlparse.DoctypeToken {
			t.Errorf("normalized stream contains %v", tok.Type)
		}
	}
}

func TestTextPreserved(t *testing.T) {
	src := `<html><body><p>alpha<p>beta<ul><li>gamma<li>delta</ul></body></html>`
	toks := normalize(t, src)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == htmlparse.TextToken {
			text.WriteString(tok.Data)
		}
	}
	for _, word := range []string{"alpha", "beta", "gamma", "delta"} {
		if !strings.Contains(text.String(), word) {
			t.Errorf("text %q lost in normalization", word)
		}
	}
}

// Property: normalization always yields a balanced stream, for arbitrary
// byte soup.
func TestNormalizeAlwaysBalancedProperty(t *testing.T) {
	f := func(s string) bool {
		toks := normalize(t, s)
		var depth int
		for _, tok := range toks {
			switch tok.Type {
			case htmlparse.StartTagToken:
				depth++
			case htmlparse.EndTagToken:
				depth--
				if depth < 0 {
					return false
				}
			}
		}
		return depth == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent at the serialized level.
func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		once := normalizeHTML(t, s)
		return normalizeHTML(t, once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A dangling inline element must not shield implied closures: the second
// <td> closes both the open link and the first cell (tag-soup pages with
// no end tags at all depend on this).
func TestImpliedClosureUnwindsFormatting(t *testing.T) {
	toks := normalize(t, `<table><tr><td><a href="/x">first<td>second<tr><td><b>third</table>`)
	balanced(t, toks)
	counts := countTags(toks)
	if counts["td"] != 3 || counts["tr"] != 2 {
		t.Errorf("td=%d tr=%d, want 3/2", counts["td"], counts["tr"])
	}
	// No td may end up nested inside an a.
	var stack []string
	for _, tok := range toks {
		switch tok.Type {
		case htmlparse.StartTagToken:
			if tok.Data == "td" {
				for _, s := range stack {
					if s == "a" || s == "b" {
						t.Fatalf("td nested inside <%s>", s)
					}
				}
			}
			stack = append(stack, tok.Data)
		case htmlparse.EndTagToken:
			stack = stack[:len(stack)-1]
		}
	}
}

// Formatting elements do not unwind when no implied target lies below:
// a <p> inside <b> inside <div> keeps the bold open.
func TestFormattingKeptWithoutImpliedTarget(t *testing.T) {
	toks := normalize(t, `<div><b>bold <span>x</span> still bold</b></div>`)
	balanced(t, toks)
	if got := countTags(toks)["b"]; got != 1 {
		t.Errorf("b count = %d, want 1 (no spurious reopen)", got)
	}
}

func TestSelectOptionClosure(t *testing.T) {
	toks := normalize(t, `<select><option>a<option>b<option>c</select>`)
	balanced(t, toks)
	if got := countTags(toks)["option"]; got != 3 {
		t.Errorf("option count = %d, want 3", got)
	}
}

func TestNestedTableEndTagScoping(t *testing.T) {
	// A stray </table> inside a cell must not close the outer table's cell
	// run; boundsClose confines td/tr matching to the nearest table.
	toks := normalize(t, `<table><tr><td><table><tr><td>inner</td></tr></table></td>`+
		`<td>outer-continues</td></tr></table>`)
	balanced(t, toks)
	counts := countTags(toks)
	if counts["table"] != 2 || counts["td"] != 3 {
		t.Errorf("table=%d td=%d, want 2/3", counts["table"], counts["td"])
	}
}
