package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range NewAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// wantExp is one parsed `// want "regex"` expectation.
type wantExp struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants gathers the `// want "…"` comments of every loaded
// fixture file, keyed by "file:line".
func collectWants(t *testing.T, pkgs []*Package) map[string][]*wantExp {
	t.Helper()
	wants := make(map[string][]*wantExp)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					raw, err := strconv.Unquote(strings.TrimSpace(rest))
					if err != nil {
						t.Fatalf("malformed want comment %q: %v", c.Text, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("malformed want pattern %q: %v", raw, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantExp{re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name>, runs only the matching
// analyzer, and checks findings against the want comments exactly:
// every finding needs a want on its line, every want needs a finding.
func runFixture(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers(pkgs, []*Analyzer{analyzerByName(t, name)})
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings; the positive cases are not exercising the analyzer")
	}
	wants := collectWants(t, pkgs)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.re.MatchString(f.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: no finding matched want %q", key, exp.raw)
			}
		}
	}
}

func TestGovernloopFixture(t *testing.T) { runFixture(t, "governloop") }
func TestErrwrapFixture(t *testing.T)    { runFixture(t, "errwrap") }
func TestCtxfirstFixture(t *testing.T)   { runFixture(t, "ctxfirst") }
func TestPuredetFixture(t *testing.T)    { runFixture(t, "puredet") }
func TestLockholdFixture(t *testing.T)   { runFixture(t, "lockhold") }
func TestPeerhttpFixture(t *testing.T)   { runFixture(t, "peerhttp") }
func TestGoleakFixture(t *testing.T)     { runFixture(t, "goleak") }
func TestSpanendFixture(t *testing.T)    { runFixture(t, "spanend") }

// TestSelfCheck asserts the full analyzer suite is green on the real
// module after the reviewed baseline is applied: the contracts
// ominilint enforces hold in this tree, every deliberate exception is
// recorded in lint.baseline, and no baseline entry is stale.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	root := filepath.Join("..", "..")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBaseline(filepath.Join(root, "lint.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	findings := ApplyBaseline(baseline, pkgs, RunAnalyzers(pkgs, NewAnalyzers()))
	for _, f := range findings {
		t.Errorf("ominilint finding on the real module: %s", f)
	}
}
