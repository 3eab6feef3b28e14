// Fast/slow-path parity suite: the wrapper farm's entire value rests on
// the claim that replaying a learned rule (the Table 17 fast path) is a
// pure shortcut — same records, order-of-magnitude less work. This
// suite makes the claim falsifiable on every golden page: full Phase-2
// discovery and rule replay must produce byte-identical serialized
// output, both through core directly and through the farm (whose
// singleflight, LRU and versioning sit between the caller and core).
// ci.sh runs it under -race with the rest of the tree.
package omini_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"omini/internal/core"
	"omini/internal/farm"
	"omini/internal/obs"
)

// parityRecord serializes the extraction outcome fields the service
// exposes, so "byte-identical" covers everything a client can see:
// the rule itself, every object's text and size, raw (pre-refinement)
// object count and object order.
type parityRecord struct {
	SubtreePath string   `json:"subtree_path"`
	Separator   string   `json:"separator"`
	RawCount    int      `json:"raw_count"`
	Objects     []string `json:"objects"`
	Sizes       []int    `json:"sizes"`
}

func parityBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	rec := parityRecord{
		SubtreePath: res.SubtreePath,
		Separator:   res.Separator,
		RawCount:    len(res.Raw),
	}
	for _, o := range res.Objects {
		rec.Objects = append(rec.Objects, o.Text())
		rec.Sizes = append(rec.Sizes, o.Size())
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal parity record: %v", err)
	}
	return data
}

// TestFastSlowPathParity replays each golden page through
// ExtractWithRuleContext using the rule its own discovery produced and
// requires byte-identical output.
func TestFastSlowPathParity(t *testing.T) {
	e := core.New(core.Options{})
	ctx := context.Background()
	for _, page := range goldenPages(t) {
		page := page
		t.Run(page.Name, func(t *testing.T) {
			slow, err := e.ExtractContext(ctx, page.HTML)
			if err != nil {
				t.Fatalf("discovery: %v", err)
			}
			fast, err := e.ExtractWithRuleContext(ctx, page.HTML, slow.Rule(page.Site))
			if err != nil {
				t.Fatalf("rule replay: %v", err)
			}
			slowBytes, fastBytes := parityBytes(t, slow), parityBytes(t, fast)
			if !bytes.Equal(slowBytes, fastBytes) {
				t.Errorf("fast path diverged from discovery:\nslow: %s\nfast: %s",
					slowBytes, fastBytes)
			}
		})
	}
}

// TestFarmPathParity runs the same differential through the wrapper
// farm: the first request learns (slow path), the second replays (fast
// path), and the two must serialize identically — proving the farm's
// caching layers add no behavior of their own.
func TestFarmPathParity(t *testing.T) {
	f, err := farm.New(farm.Config{Stats: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("farm.New: %v", err)
	}
	ctx := context.Background()
	for _, page := range goldenPages(t) {
		page := page
		t.Run(page.Name, func(t *testing.T) {
			slow, out, err := f.Extract(ctx, page.Site, core.NewPage(page.HTML))
			if err != nil {
				t.Fatalf("learn: %v", err)
			}
			if !out.Learned {
				t.Fatalf("first farm request did not learn: %+v", out)
			}
			fast, out, err := f.Extract(ctx, page.Site, core.NewPage(page.HTML))
			if err != nil {
				t.Fatalf("fast path: %v", err)
			}
			if !out.FromRule {
				t.Fatalf("second farm request did not replay: %+v", out)
			}
			slowBytes, fastBytes := parityBytes(t, slow), parityBytes(t, fast)
			if !bytes.Equal(slowBytes, fastBytes) {
				t.Errorf("farm fast path diverged from discovery:\nslow: %s\nfast: %s",
					slowBytes, fastBytes)
			}
		})
	}
}
