package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/rules"
	"omini/internal/tagtree"
)

func storedRule(site string) StoredRule {
	return StoredRule{
		Rule: rules.Rule{
			Site:        site,
			SubtreePath: "html[1].body[1].ul[1]",
			Separator:   "li",
			LearnedAt:   time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
			Version:     3,
		},
		Signature: tagtree.Signature{"html": 1, "html.body": 1, "html.body.ul": 1},
		Hits:      42,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := Snapshot{Rules: []StoredRule{storedRule("b.example"), storedRule("a.example")}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Version != SnapshotVersion {
		t.Fatalf("Version = %d, want %d", out.Version, SnapshotVersion)
	}
	if len(out.Rules) != 2 || out.Rules[0].Site != "a.example" || out.Rules[1].Site != "b.example" {
		t.Fatalf("rules not canonical by site: %+v", out.Rules)
	}
	got := out.Rules[1]
	want := storedRule("b.example")
	if got.SubtreePath != want.SubtreePath || got.Separator != want.Separator ||
		got.Version != want.Version || got.Hits != want.Hits ||
		!got.LearnedAt.Equal(want.LearnedAt) {
		t.Fatalf("rule fields lost in round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Signature.Similarity(want.Signature) != 1 {
		t.Fatalf("signature lost in round trip: %v", got.Signature)
	}
}

func TestDecodeSnapshotCanonicalizes(t *testing.T) {
	in := Snapshot{Rules: []StoredRule{
		storedRule("dup.example"),
		{Rule: rules.Rule{Site: "invalid.example"}},          // no path/separator
		{Rule: rules.Rule{SubtreePath: "x", Separator: "y"}}, // no site
		func() StoredRule { r := storedRule("dup.example"); r.Version = 9; return r }(),
	}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out.Rules) != 1 {
		t.Fatalf("canonical rules = %+v, want exactly one", out.Rules)
	}
	if out.Rules[0].Version != 9 {
		t.Fatalf("dedupe kept version %d, want last-wins 9", out.Rules[0].Version)
	}
}

func TestDecodeSnapshotLegacyArray(t *testing.T) {
	legacy := []byte(`[{"site":"old.example","subtreePath":"html[1].body[1]","separator":"tr"}]`)
	snap, err := DecodeSnapshot(legacy)
	if err != nil {
		t.Fatalf("Decode legacy: %v", err)
	}
	if len(snap.Rules) != 1 || snap.Rules[0].Site != "old.example" {
		t.Fatalf("legacy rules = %+v", snap.Rules)
	}
	if snap.Version != SnapshotVersion {
		t.Fatalf("legacy Version = %d, want %d", snap.Version, SnapshotVersion)
	}
}

// A newer version is refused even when it carries no rules: the
// version check comes before anything is decoded.
func TestDecodeSnapshotRejectsNewerVersion(t *testing.T) {
	_, err := DecodeSnapshot([]byte(`{"version":99,"rules":[]}`))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
}

// TestDecodeSnapshotRejectsMalformed is the hardening table over the
// snapshot shapes a rule file or a ruledist transfer can hold: the
// current envelope, v1 and the pre-envelope array load; corrupt,
// truncated, duplicate-site and future-version payloads fail, the last
// two with typed errors.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	good := `{"site": "good.com", "subtreePath": "html[1]", "separator": "tr"}`
	tests := []struct {
		name    string
		payload string
		bad     bool  // the decode must fail
		wantErr error // when non-nil, the error it must fail with
	}{
		{name: "current envelope", payload: `{"version": 2, "rules": [` + good + `]}`},
		{name: "v1 envelope", payload: `{"version": 1, "rules": [` + good + `]}`},
		{name: "legacy array", payload: `[` + good + `]`},
		{name: "corrupt", payload: `{"version": 2, "rules": [{]}`, bad: true},
		{name: "truncated", payload: `{"version": 2, "rules": [` + good, bad: true},
		{name: "empty", payload: ``, bad: true},
		{name: "open brace", payload: `{`, bad: true},
		{name: "corrupt array", payload: `[{]`, bad: true},
		{name: "string version", payload: `{"version":"x"}`, bad: true},
		{name: "null then bracket", payload: `null[`, bad: true},
		{
			name:    "duplicate site",
			payload: `{"version": 1, "rules": [` + good + `, ` + good + `]}`,
			bad:     true, wantErr: ErrDuplicateSite,
		},
		{
			name:    "duplicate site legacy array",
			payload: `[` + good + `, ` + good + `]`,
			bad:     true, wantErr: ErrDuplicateSite,
		},
		{
			name:    "future version",
			payload: `{"version": 99, "rules": [` + good + `]}`,
			bad:     true, wantErr: ErrSnapshotVersion,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			snap, err := DecodeSnapshot([]byte(tt.payload))
			if !tt.bad {
				if err != nil {
					t.Fatalf("DecodeSnapshot: %v", err)
				}
				if len(snap.Rules) != 1 || snap.Version != SnapshotVersion {
					t.Fatalf("snapshot = %+v, want one rule at version %d", snap, SnapshotVersion)
				}
				return
			}
			if err == nil {
				t.Fatal("malformed snapshot accepted")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// FuzzSnapshotCodec: DecodeSnapshot must never panic, and every
// accepted input must re-encode to a canonical fixed point
// (encode∘decode∘encode = encode∘decode).
func FuzzSnapshotCodec(f *testing.F) {
	f.Add([]byte(`{"version":1,"rules":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"site":"a","subtreePath":"html[1]","separator":"li"}]`))
	f.Add([]byte(`{"version":1,"rules":[{"site":"s.example","subtreePath":"html[1].body[1]","separator":"tr","version":2,"hits":7,"signature":{"html":1}}]}`))
	f.Add([]byte(`{"version":2,"rules":[],"tombstones":[{"site":"gone.example","version":3,"evictedAt":"2026-08-03T00:00:00Z"}]}`))
	f.Add([]byte(`{"version":2,"rules":[{"site":"both.example","subtreePath":"html[1]","separator":"li","version":2}],"tombstones":[{"site":"both.example","version":2},{"site":"both.example","version":1}]}`))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	// Seed with a real learned rule: discovery over a deterministic
	// list page, exactly what a production store holds.
	ex := core.New(core.Options{})
	var page bytes.Buffer
	page.WriteString("<html><body><ul>")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&page, `<li><a href="/%d">Seed %d</a> text</li>`, i, i)
	}
	page.WriteString("</ul></body></html>")
	if res, err := ex.ExtractContext(context.Background(), page.String()); err == nil {
		rule := res.Rule("seed.example")
		rule.Version = 1
		seed, err := EncodeSnapshot(Snapshot{Rules: []StoredRule{{
			Rule:      rule,
			Signature: tagtree.PathSignature(res.Tree),
			Hits:      1,
		}}})
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected cleanly
		}
		once, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot failed to encode: %v", err)
		}
		again, err := DecodeSnapshot(once)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		twice, err := EncodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("codec is not a fixed point:\nonce:  %s\ntwice: %s", once, twice)
		}
	})
}
