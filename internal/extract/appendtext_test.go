package extract

import (
	"math/rand"
	"testing"
)

// TestAppendTextAppends: AppendText writes exactly Text after whatever
// dst already holds, so the separator space and the trimming of an
// empty first part are decided within the object, not by dst's prefix.
func TestAppendTextAppends(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var scratch []byte
	for i, o := range randomObjects(r, []string{"p", "b"}, 5000) {
		for _, prefix := range []string{"", "x", " pre "} {
			scratch = o.AppendText(append(scratch[:0], prefix...))
			if got, want := string(scratch), prefix+o.Text(); got != want {
				t.Fatalf("object %d after %q: AppendText %q, want %q", i, prefix, got, want)
			}
		}
	}
}
