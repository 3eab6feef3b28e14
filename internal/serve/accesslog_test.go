package serve

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"testing"

	"omini/internal/obs"
	"omini/internal/resilience"
	"omini/internal/sitegen"
)

// TestAccessLineFieldKinds: the access line's typed fields keep the
// JSON kinds the boxed values had — numbers, a boolean, strings and a
// 32-hex trace ID — for every field of a traced, extracted request.
func TestAccessLineFieldKinds(t *testing.T) {
	buf := &syncBuffer{}
	ts := httptest.NewServer(New(Config{
		Stats:  resilience.NewStats(),
		Logger: obs.NewLogger(buf, obs.LevelInfo),
	}))
	defer ts.Close()
	page := sitegen.Canoe()
	post(t, ts.URL+"/extract?site="+page.Site, page.HTML)

	var line map[string]any
	if err := json.Unmarshal(buf.waitLine(t), &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"status", "durMs", "objects", "confidence"} {
		if _, ok := line[key].(float64); !ok {
			t.Errorf("%s = %#v, want a number", key, line[key])
		}
	}
	if _, ok := line["fromRule"].(bool); !ok {
		t.Errorf("fromRule = %#v, want a boolean", line["fromRule"])
	}
	for _, key := range []string{"method", "path", "site", "subtree", "separator"} {
		if s, ok := line[key].(string); !ok || s == "" {
			t.Errorf("%s = %#v, want a non-empty string", key, line[key])
		}
	}
	if s, _ := line["trace"].(string); !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(s) {
		t.Errorf("trace = %#v, want 32 hex digits", line["trace"])
	}
}
