package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// jsonReport mirrors the documented -json output shape.
type jsonReport struct {
	Findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	} `json:"findings"`
	Analyzers []struct {
		Name     string  `json:"name"`
		Millis   float64 `json:"millis"`
		Findings int     `json:"findings"`
	} `json:"analyzers"`
}

func buildLinter(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ominilint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFixtureExitCodes builds the linter and checks the CLI contract
// against each violating fixture tree: nonzero exit, and -json output
// that parses into the documented shape with per-analyzer timings.
func TestFixtureExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the linter binary; skipped with -short")
	}
	bin := buildLinter(t)
	for _, fixture := range []string{
		"governloop", "errwrap", "ctxfirst", "puredet",
		"lockhold", "peerhttp", "goleak",
	} {
		dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", fixture)
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("fixture %s: want exit 1, got %v", fixture, err)
			continue
		}
		var report jsonReport
		if err := json.Unmarshal(out, &report); err != nil {
			t.Errorf("fixture %s: -json output does not parse: %v\n%s", fixture, err, out)
			continue
		}
		if len(report.Findings) == 0 {
			t.Errorf("fixture %s: exit 1 but no findings in JSON output", fixture)
		}
		if len(report.Analyzers) == 0 {
			t.Errorf("fixture %s: -json output carries no analyzer timings", fixture)
		}
		fromTimings := 0
		for _, a := range report.Analyzers {
			fromTimings += a.Findings
		}
		if fromTimings < len(report.Findings) {
			t.Errorf("fixture %s: timing counts (%d) cover fewer findings than reported (%d)",
				fixture, fromTimings, len(report.Findings))
		}
	}
}

// TestOnlyFilter checks -only restricts the run to the named analyzer.
func TestOnlyFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the linter binary; skipped with -short")
	}
	bin := buildLinter(t)
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "lockhold")
	cmd := exec.Command(bin, "-json", "-only=lockhold", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v", err)
	}
	var report jsonReport
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(report.Analyzers) != 1 || report.Analyzers[0].Name != "lockhold" {
		t.Fatalf("-only=lockhold should time exactly that analyzer, got %+v", report.Analyzers)
	}
	for _, f := range report.Findings {
		if f.Analyzer != "lockhold" {
			t.Fatalf("-only=lockhold leaked a %s finding: %s", f.Analyzer, f.Message)
		}
	}

	cmd = exec.Command(bin, "-only=nosuch", "./...")
	cmd.Dir = dir
	if err := cmd.Run(); err == nil {
		t.Fatal("-only=nosuch should fail with a usage error")
	} else if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-only=nosuch: want exit 2, got %v", err)
	}
}

// TestStaleBaseline checks the baseline round trip: a valid entry
// suppresses its finding, and an entry naming a vanished function
// fails the -only=baseline staleness gate.
func TestStaleBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the linter binary; skipped with -short")
	}
	bin := buildLinter(t)
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src", "goleak"))
	if err != nil {
		t.Fatal(err)
	}

	good := filepath.Join(t.TempDir(), "good.baseline")
	if err := os.WriteFile(good, []byte(
		"goleak farm.Server.badFireAndForget — fixture exception\n"+
			"goleak farm.Server.badInnerChannel — fixture exception\n"+
			"goleak farm.Server.badNamedNoContext — fixture exception\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-only=goleak", "-baseline="+good, "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("full baseline should leave the fixture clean, got %v\n%s", err, out)
	}

	stale := filepath.Join(t.TempDir(), "stale.baseline")
	if err := os.WriteFile(stale, []byte("goleak farm.Server.gone — names nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(bin, "-only=baseline", "-baseline="+stale, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("stale baseline should exit 1, got %v\n%s", err, out)
	}
}
