package pathology

import (
	"strings"
	"testing"
)

func TestGeneratorShapes(t *testing.T) {
	if got := DeepNesting(3); got != "<html><body><div><div><div>bottom</div></div></div></body></html>" {
		t.Errorf("DeepNesting(3) = %q", got)
	}
	if got := UnclosedAvalanche(2); !strings.HasSuffix(got, "<div>x<span>x") {
		t.Errorf("UnclosedAvalanche(2) = %q", got)
	}
	if got := HugeTextNode(1 << 10); len(got) < 1<<10 {
		t.Errorf("HugeTextNode(1K) only %d bytes", len(got))
	}
	if got := MegaAttributes(2, 3, 4); strings.Count(got, "data-a") != 6 {
		t.Errorf("MegaAttributes(2,3,4) attr count wrong: %q", got)
	}
	if got := DistinctTags(2); got != "<html><body><tag-0>item 0</tag-0><tag-1>item 1</tag-1></body></html>" {
		t.Errorf("DistinctTags(2) = %q", got)
	}
	if got := EntityBomb(600); strings.Count(got, "&amp;") != 100 {
		t.Errorf("EntityBomb(600) = %d units", strings.Count(got, "&amp;"))
	}
}

func TestCorpusCovers(t *testing.T) {
	c := Corpus()
	for _, name := range []string{
		"deep_nesting.html", "mega_attributes.html", "entity_bomb.html",
		"unclosed_avalanche.html", "huge_text_node.html", "distinct_tags.html",
	} {
		if c[name] == "" {
			t.Errorf("corpus missing %s", name)
		}
	}
}

func TestWriteCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpus(dir); err != nil {
		t.Fatal(err)
	}
}
