// Package pathology generates adversarial HTML pages for the resource
// governor's test corpus: inputs a hostile or broken web server could
// feed the extractor, each designed to blow up a different pipeline
// phase if that phase had no budget. The canonical instances live in
// testdata/pathological/ (written by WriteCorpus); tests also call the
// generators directly when they need a precise size.
//
// Every page here must either extract, fail with ErrNoObjects, or fail
// fast with a typed govern error — never hang, panic, or overflow the
// stack. That invariant is enforced by TestPathologicalCorpus at the
// repository root and the Pathological tests in internal/core.
package pathology

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DeepNesting returns a page whose body is `depth` nested <div>s with a
// single text leaf at the bottom. At 100k levels it overflows the goroutine
// stack of any recursive tree walk unless the depth budget trips first.
func DeepNesting(depth int) string {
	var b strings.Builder
	b.Grow(depth*11 + 64)
	b.WriteString("<html><body>")
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("bottom")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// MegaAttributes returns a page of `tags` elements each dragging `attrs`
// attributes with `valLen`-byte values — a lexer stressor: almost all the
// input is attribute machinery, not content.
func MegaAttributes(tags, attrs, valLen int) string {
	val := strings.Repeat("v", valLen)
	var attr strings.Builder
	for i := 0; i < attrs; i++ {
		fmt.Fprintf(&attr, ` data-a%d="%s"`, i, val)
	}
	var b strings.Builder
	b.Grow(tags * (attr.Len() + 32))
	b.WriteString("<html><body>")
	for i := 0; i < tags; i++ {
		fmt.Fprintf(&b, "<p%s>item %d</p>", attr.String(), i)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// EntityBomb returns a page whose text is `n` back-to-back character
// entities — the decode-heavy analogue of XML entity-expansion attacks
// (true recursive expansion does not exist in HTML, so volume stands in
// for recursion).
func EntityBomb(n int) string {
	unit := "&amp;&lt;&gt;&quot;&#65;&#x42;"
	var b strings.Builder
	b.Grow(n*len(unit)/6 + 64)
	b.WriteString("<html><body><p>")
	for i := 0; i < n/6; i++ {
		b.WriteString(unit)
	}
	b.WriteString("</p></body></html>")
	return b.String()
}

// UnclosedAvalanche returns a page of `n` open tags that are never closed.
// Tidy must repair every one; without budgets the repair stack grows with
// the input and close-all emits n synthetic end tags.
func UnclosedAvalanche(n int) string {
	tags := []string{"div", "span", "b", "i", "em"}
	var b strings.Builder
	b.Grow(n*8 + 64)
	b.WriteString("<html><body>")
	for i := 0; i < n; i++ {
		b.WriteString("<" + tags[i%len(tags)] + ">x")
	}
	return b.String()
}

// HugeTextNode returns a page holding one text node of roughly `size`
// bytes — a multi-megabyte "paragraph" that must flow through tokenize,
// tidy and the tree as a single node without amplification.
func HugeTextNode(size int) string {
	word := "lorem ipsum dolor sit amet "
	var b strings.Builder
	b.Grow(size + 64)
	b.WriteString("<html><body><p>")
	for b.Len() < size {
		b.WriteString(word)
	}
	b.WriteString("</p></body></html>")
	return b.String()
}

// DistinctTags returns a page whose body holds n children, each a
// different custom tag name around a line of text — a stressor for
// anything the separator heuristics size by distinct child tags rather
// than by children: a table of every pair of tags would hold n² cells.
func DistinctTags(n int) string {
	var b strings.Builder
	b.Grow(n*32 + 64)
	b.WriteString("<html><body>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<tag-%d>item %d</tag-%d>", i, i, i)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Corpus lists the canonical pathological pages by file name.
func Corpus() map[string]string {
	return map[string]string{
		"deep_nesting.html":       DeepNesting(100_000),
		"mega_attributes.html":    MegaAttributes(400, 64, 32),
		"entity_bomb.html":        EntityBomb(300_000),
		"unclosed_avalanche.html": UnclosedAvalanche(200_000),
		"huge_text_node.html":     HugeTextNode(3 << 20),
		"distinct_tags.html":      DistinctTags(4096),
	}
}

// WriteCorpus materializes the canonical corpus into dir, creating it if
// needed. It is what `go generate` runs to refresh testdata/pathological/.
func WriteCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, html := range Corpus() {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(html), 0o644); err != nil {
			return err
		}
	}
	return nil
}
