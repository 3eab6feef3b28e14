// Golden decision-trace tests: the trace an extraction reports must agree
// with the extraction itself. For pinned golden pages, the traced run's
// winning subtree path and separator tag must equal the checked-in golden
// record, the trace's combined ranking must put the winner first, and the
// per-phase span list must cover the whole pipeline. A trace that named a
// different winner than the extraction would be worse than no trace.
package omini_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"omini/internal/core"
	"omini/internal/corpus"
	"omini/internal/obs"
	"omini/internal/sitegen"
)

// tracedGoldenPages are the pages whose decision traces are pinned against
// the extraction goldens: the two paper replicas and one generated site.
func tracedGoldenPages(t *testing.T) []sitegen.Page {
	t.Helper()
	pages := []sitegen.Page{sitegen.Canoe(), sitegen.LOC()}
	for _, spec := range corpus.AllSpecs() {
		if spec.Name == "www.amazon.example" {
			return append(pages, spec.Page(1))
		}
	}
	t.Fatal("www.amazon.example not in corpus")
	return nil
}

func TestGoldenDecisionTrace(t *testing.T) {
	e := core.New(core.Options{})
	for _, page := range tracedGoldenPages(t) {
		page := page
		t.Run(page.Name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "golden", page.Name+".json"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}

			ctx, _ := obs.WithTraceRecorder(t.Context(), false)
			res, err := e.ExtractContext(ctx, page.HTML)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatal("traced extraction returned no trace")
			}

			// The trace must name the same winners the golden extraction
			// pinned.
			if tr.SubtreePath != want.SubtreePath {
				t.Errorf("trace subtree = %q, golden %q", tr.SubtreePath, want.SubtreePath)
			}
			if tr.Separator != want.Separator {
				t.Errorf("trace separator = %q, golden %q", tr.Separator, want.Separator)
			}
			if tr.Objects != want.ObjectCount {
				t.Errorf("trace objects = %d, golden %d", tr.Objects, want.ObjectCount)
			}

			// Internal consistency: the rankings the trace reports must
			// actually rank the winners first.
			if len(tr.SubtreeRanking) == 0 || tr.SubtreeRanking[0].Key != tr.SubtreePath {
				t.Errorf("subtree ranking does not lead with the winner: %+v", tr.SubtreeRanking)
			}
			if len(tr.Combined) == 0 || tr.Combined[0].Key != tr.Separator {
				t.Errorf("combined ranking does not lead with the winner: %+v", tr.Combined)
			}
			if len(tr.SeparatorRankings) == 0 {
				t.Error("trace has no per-heuristic rankings")
			}
			if tr.Confidence <= 0 || tr.Confidence > 1 {
				t.Errorf("confidence = %v, want (0, 1]", tr.Confidence)
			}

			// The span list must cover every pipeline phase, in order.
			if len(tr.Phases) != len(core.Phases) {
				t.Fatalf("trace has %d phases, want %d: %+v", len(tr.Phases), len(core.Phases), tr.Phases)
			}
			for i, ph := range core.Phases {
				if tr.Phases[i].Name != ph {
					t.Errorf("phase %d = %q, want %q", i, tr.Phases[i].Name, ph)
				}
				if tr.Phases[i].DurationNS < 0 {
					t.Errorf("phase %q has negative duration", ph)
				}
			}

			// The trace must round-trip through JSON (it is served inline by
			// /extract?trace=1 and printed by omini -trace).
			blob, err := json.Marshal(tr)
			if err != nil {
				t.Fatalf("trace does not marshal: %v", err)
			}
			var back obs.DecisionTrace
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatalf("trace does not round-trip: %v", err)
			}
			if back.SubtreePath != tr.SubtreePath || back.Separator != tr.Separator {
				t.Error("trace winners lost in JSON round-trip")
			}
		})
	}
}
