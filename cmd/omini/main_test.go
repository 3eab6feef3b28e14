package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omini/internal/farm"
	"omini/internal/sitegen"
)

// writePage materializes a replica page for CLI runs.
func writePage(t *testing.T, page sitegen.Page) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), page.Name+".html")
	if err := os.WriteFile(path, []byte(page.HTML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextOutput(t *testing.T) {
	path := writePage(t, sitegen.Canoe())
	var out strings.Builder
	if err := run(&out, []string{path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"separator: table", "objects:   12", "Maple Leafs"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writePage(t, sitegen.LOC())
	var out strings.Builder
	if err := run(&out, []string{"-json", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Separator != "hr" && res.Separator != "pre" {
		t.Errorf("separator = %q", res.Separator)
	}
	if len(res.Objects) != 20 {
		t.Errorf("objects = %d, want 20", len(res.Objects))
	}
}

func TestRunTreeOutput(t *testing.T) {
	path := writePage(t, sitegen.LOC())
	var out strings.Builder
	if err := run(&out, []string{"-tree", "-depth", "2", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "html") || !strings.Contains(out.String(), "body") {
		t.Errorf("tree output = %q", out.String())
	}
}

func TestRunWithRuleCache(t *testing.T) {
	page := sitegen.Canoe()
	path := writePage(t, page)
	rulesPath := filepath.Join(t.TempDir(), "rules.json")
	// The file already holds a farm snapshot: a rule with its training
	// signature and hits, and a tombstone for an evicted site. The CLI
	// must keep both.
	seed := `{"version": 2,
		"rules": [{"site": "kept.example", "subtreePath": "html[1].body[1].ul[1]", "separator": "li",
			"learnedAt": "2026-08-01T00:00:00Z", "version": 3, "signature": {"html": 1, "html.body": 1}, "hits": 7}],
		"tombstones": [{"site": "dead.example", "version": 4, "evictedAt": "2026-08-02T00:00:00Z"}]}`
	if err := os.WriteFile(rulesPath, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	// First run learns and persists a rule.
	if err := run(&out, []string{"-rules", rulesPath, "-site", page.Site, path}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	data, err := os.ReadFile(rulesPath)
	if err != nil {
		t.Fatalf("rules not persisted: %v", err)
	}
	if !strings.Contains(string(data), page.Site) {
		t.Errorf("rules file missing site: %s", data)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Errorf("rules file is no longer a v2 snapshot: %s", data)
	}
	snap, err := farm.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(snap.Rules) != 2 {
		t.Fatalf("rules = %+v, want kept.example and %s", snap.Rules, page.Site)
	}
	for _, r := range snap.Rules {
		switch r.Site {
		case "kept.example":
			if r.Version != 3 || r.Hits != 7 || len(r.Signature) != 2 {
				t.Errorf("kept rule = %+v, want version 3, 7 hits and its signature", r)
			}
		case page.Site:
			if r.Version < 1 || len(r.Signature) == 0 {
				t.Errorf("learned rule = %+v, want a version and a signature", r)
			}
		default:
			t.Errorf("unexpected rule %+v", r)
		}
	}
	if len(snap.Tombstones) != 1 || snap.Tombstones[0].Site != "dead.example" || snap.Tombstones[0].Version != 4 {
		t.Errorf("tombstones = %+v, want dead.example at version 4", snap.Tombstones)
	}
	// Second run replays it.
	out.Reset()
	if err := run(&out, []string{"-rules", rulesPath, "-site", page.Site, path}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(out.String(), "objects:   12") {
		t.Errorf("replay output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{}); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run(&out, []string{"/no/such/file.html"}); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.html")
	if err := os.WriteFile(empty, []byte("<html><body>prose</body></html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, []string{empty}); err == nil {
		t.Error("object-free page extracted")
	}
}
