package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// Without a rules snapshot there is nothing to wait for: the server is
// ready from the first request.
func TestReadyzImmediateWithoutSnapshot(t *testing.T) {
	ts := newTestServer(t)
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", got)
	}
}

// A snapshot that loads flips readiness; a snapshot that cannot load
// leaves the server alive (healthz 200) but not ready (readyz 503) —
// the split that keeps a bad deploy out of rotation without restarting
// it into a crash loop.
func TestReadyzGatedOnRuleSnapshot(t *testing.T) {
	good := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(good, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{RulesFile: good})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Errorf("loaded snapshot: /readyz = %d, want 200", got)
	}
	if !srv.Ready() {
		t.Error("Ready() = false after successful snapshot load")
	}

	bad := New(Config{RulesFile: filepath.Join(t.TempDir(), "missing.json")})
	tsBad := httptest.NewServer(bad)
	defer tsBad.Close()
	if got := getStatus(t, tsBad.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("missing snapshot: /readyz = %d, want 503", got)
	}
	if got := getStatus(t, tsBad.URL+"/healthz"); got != http.StatusOK {
		t.Errorf("missing snapshot: /healthz = %d, want 200 (alive, not ready)", got)
	}
	if bad.Ready() {
		t.Error("Ready() = true with a failed snapshot load")
	}
}
