package tagtree

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"omini/internal/govern"
)

// A tag holding a '.' can make two trie paths render alike ("a.b"+"c"
// and "a"+"b.c"); the signature merges them as the reference does.
func TestPathTrieDottedTags(t *testing.T) {
	root := &Node{Tag: "html", Children: []*Node{
		{Tag: "a.b", Children: []*Node{{Tag: "c"}}},
		{Tag: "a", Children: []*Node{{Tag: "b.c"}, {Text: "x"}}},
	}}
	root.finalize()
	if got, want := PathSignature(root), oraclePathSignature(root); !maps.Equal(got, want) {
		t.Fatalf("signature %v, reference %v", got, want)
	}
}

// A path with more distinct continuations than a lookup scans is served
// by the wide index, and still counts every path exactly once.
func TestPathTrieWideFanout(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body>")
	for rep := 0; rep < 3; rep++ {
		b.WriteString("<div>")
		for i := 0; i < 3*scanLimit; i++ {
			fmt.Fprintf(&b, "<x%d><b>v</b></x%d>", i, i)
		}
		b.WriteString("</div>")
	}
	b.WriteString("</body></html>")
	root := mustParse(t, b.String())
	trie, err := BuildPathTrie([]*Node{root}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trie.wide == nil {
		t.Fatal("no wide index for a path with many distinct continuations")
	}
	want := oraclePathSignature(root)
	if got := PathSignature(root); !maps.Equal(got, want) {
		t.Fatalf("signature has %d paths, reference %d, or counts differ", len(got), len(want))
	}
	// The signature merges paths that render alike, so count the nodes:
	// a path found twice would be a second node.
	if got := len(trie.Nodes) - 1; got != len(want) {
		t.Errorf("trie holds %d paths, want %d distinct", got, len(want))
	}
}

// Next walks a top's subtree in pre-order, each node once, and AppendPath
// renders the dot-joined path.
func TestPathTrieWalk(t *testing.T) {
	root := mustParse(t, `<html><body><table><tr><td>a</td><td>b</td></tr></table><p>c</p></body></html>`)
	trie, _ := BuildPathTrie(root.Children, nil)
	var paths []string
	for top := trie.Nodes[0].FirstChild; top != 0; top = trie.Nodes[top].NextSibling {
		for i := top; i != 0; i = trie.Next(i, top) {
			paths = append(paths, fmt.Sprintf("%s=%d/%d", trie.AppendPath(nil, i), trie.Nodes[i].Count, trie.Nodes[i].Depth))
		}
	}
	want := "body=1/1 body.table=1/2 body.table.tr=1/3 body.table.tr.td=2/4 body.p=1/2"
	if got := strings.Join(paths, " "); got != want {
		t.Errorf("walk = %s, want %s", got, want)
	}
	if got := string(trie.AppendPath([]byte("x:"), 0)); got != "x:" {
		t.Errorf("root path appended %q, want nothing", got)
	}
}

// The build charges the guard, so a cancelled page stops it.
func TestBuildPathTrieCancelled(t *testing.T) {
	root := mustParse(t, "<html><body>"+strings.Repeat("<p>x</p>", 5000)+"</body></html>")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildPathTrie([]*Node{root}, govern.NewGuard(ctx, govern.Unlimited()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
