package farm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omini/internal/rules"
	"omini/internal/tagtree"
)

// syncRule builds a valid versioned rule for replication tests.
func syncRule(site string, version int) rules.Rule {
	return rules.Rule{
		Site:        site,
		SubtreePath: "html[1].body[1].ul[1]",
		Separator:   "li",
		LearnedAt:   time.Date(2026, 8, 2, 0, 0, 0, 0, time.UTC),
		Version:     version,
	}
}

func syncSig() tagtree.Signature {
	return tagtree.Signature{"html": 1, "html.body": 1, "html.body.ul": 1}
}

func TestInvalidateEntombs(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	f.Put(syncRule("dead.example", 3), syncSig())
	if !f.Invalidate("dead.example") {
		t.Fatal("Invalidate reported nothing removed")
	}
	if _, ok := f.Get("dead.example"); ok {
		t.Fatal("rule survived Invalidate")
	}
	if f.TombstoneCount() != 1 {
		t.Fatalf("TombstoneCount = %d, want 1", f.TombstoneCount())
	}
	tombs := f.Tombstones()
	if len(tombs) != 1 || tombs[0].Site != "dead.example" || tombs[0].Version != 3 {
		t.Fatalf("Tombstones = %+v, want dead.example v3", tombs)
	}
}

func TestTombstoneBlocksResurrection(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	f.Put(syncRule("zombie.example", 3), syncSig())
	f.Invalidate("zombie.example")

	// A stale peer still holding the dead rule must not bring it back.
	for _, v := range []int{1, 2, 3} {
		if f.ApplyRemote(StoredRule{Rule: syncRule("zombie.example", v), Signature: syncSig()}) {
			t.Fatalf("ApplyRemote(v%d) resurrected an entombed rule", v)
		}
	}
	if _, ok := f.Get("zombie.example"); ok {
		t.Fatal("entombed rule is back in the cache")
	}

	// A genuinely newer rule (someone relearned past the eviction)
	// supersedes the tombstone and clears it.
	if !f.ApplyRemote(StoredRule{Rule: syncRule("zombie.example", 4), Signature: syncSig()}) {
		t.Fatal("ApplyRemote(v4) rejected a rule above the tombstone")
	}
	if r, ok := f.Get("zombie.example"); !ok || r.Version != 4 {
		t.Fatalf("rule after supersede = %+v ok=%v, want v4", r, ok)
	}
	if f.TombstoneCount() != 0 {
		t.Fatalf("tombstone not cleared by newer rule: %+v", f.Tombstones())
	}
	if got := stats.Get(SeriesLearns); got != 0 {
		t.Fatalf("farm.learns = %d after replication, want 0", got)
	}
}

func TestRelearnLandsAboveTombstone(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	f.Put(syncRule("phoenix.example", 5), syncSig())
	f.Invalidate("phoenix.example")

	// An unversioned Put (fresh local learn) must land above the
	// tombstone, or peers still honoring the eviction would reject it.
	f.Put(syncRule("phoenix.example", 0), syncSig())
	r, ok := f.Get("phoenix.example")
	if !ok || r.Version != 6 {
		t.Fatalf("relearned rule = %+v ok=%v, want version 6", r, ok)
	}
	if f.TombstoneCount() != 0 {
		t.Fatalf("tombstone survived relearn: %+v", f.Tombstones())
	}
}

// An anti-entropy round can pull more rules than a shard holds. The
// pulled rules take only the coldest slot of a full shard, so the rule
// the node serves survives the burst instead of being relearned from
// another page.
func TestApplyRemoteKeepsServedRules(t *testing.T) {
	f, stats := newTestFarm(t, Config{Shards: 1, Capacity: 4})
	f.Put(syncRule("served.example", 1), syncSig())
	for i := 0; i < 10; i++ {
		if !f.ApplyRemote(StoredRule{Rule: syncRule(fmt.Sprintf("peer-%d.example", i), 1), Signature: syncSig()}) {
			t.Fatalf("ApplyRemote(peer-%d) rejected a new rule", i)
		}
	}
	if _, ok := f.Get("served.example"); !ok {
		t.Fatal("a burst of replicated rules evicted the served rule")
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	// Three pulled rules filled the free slots; the other seven each
	// displaced the previous occupant of the coldest slot.
	if got := stats.Get(SeriesEvictions); got != 7 {
		t.Fatalf("farm.evictions = %d, want 7", got)
	}
	for _, site := range []string{"peer-0.example", "peer-1.example", "peer-9.example"} {
		if _, ok := f.Get(site); !ok {
			t.Fatalf("%s not cached after the burst", site)
		}
	}
}

func TestApplyRemoteVersionConflict(t *testing.T) {
	f, stats := newTestFarm(t, Config{})
	f.Put(syncRule("conflict.example", 3), syncSig())

	if f.ApplyRemote(StoredRule{Rule: syncRule("conflict.example", 2), Signature: syncSig()}) {
		t.Fatal("older remote rule applied")
	}
	if f.ApplyRemote(StoredRule{Rule: syncRule("conflict.example", 3), Signature: syncSig()}) {
		t.Fatal("equal-version remote rule applied")
	}
	sr := StoredRule{Rule: syncRule("conflict.example", 7), Signature: syncSig(), Hits: 9}
	if !f.ApplyRemote(sr) {
		t.Fatal("newer remote rule rejected")
	}
	if r, _ := f.Get("conflict.example"); r.Version != 7 {
		t.Fatalf("Version = %d, want 7", r.Version)
	}
	if f.ApplyRemote(StoredRule{Rule: rules.Rule{Site: "bad.example"}}) {
		t.Fatal("invalid remote rule applied")
	}
	if got := stats.Get(SeriesLearns); got != 0 {
		t.Fatalf("farm.learns = %d after replication, want 0", got)
	}
}

func TestApplyTombstoneVersionConflict(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	f.Put(syncRule("sturdy.example", 5), syncSig())

	// A tombstone below the local rule lost the conflict: the rule was
	// already relearned past the eviction.
	if f.ApplyTombstone(Tombstone{Site: "sturdy.example", Version: 4}) {
		t.Fatal("stale tombstone applied over a newer rule")
	}
	if _, ok := f.Get("sturdy.example"); !ok {
		t.Fatal("rule lost to a stale tombstone")
	}

	// At or above the rule's version the eviction wins.
	if !f.ApplyTombstone(Tombstone{Site: "sturdy.example", Version: 5}) {
		t.Fatal("tombstone at the rule's version rejected")
	}
	if _, ok := f.Get("sturdy.example"); ok {
		t.Fatal("rule survived an applied tombstone")
	}
	if f.TombstoneCount() != 1 {
		t.Fatalf("TombstoneCount = %d, want 1", f.TombstoneCount())
	}
}

func TestVersionVectorAndEtag(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	empty := f.Etag()
	f.Put(syncRule("a.example", 2), syncSig())
	f.Put(syncRule("b.example", 1), syncSig())
	f.Invalidate("b.example")

	ruleV, tombV := f.VersionVector()
	if len(ruleV) != 1 || ruleV["a.example"] != 2 {
		t.Fatalf("ruleV = %v", ruleV)
	}
	if len(tombV) != 1 || tombV["b.example"] != 1 {
		t.Fatalf("tombV = %v", tombV)
	}

	one := f.Etag()
	if one == empty {
		t.Fatal("etag did not change with farm state")
	}
	if again := f.Etag(); again != one {
		t.Fatalf("etag unstable without mutation: %s != %s", again, one)
	}
	f.Put(syncRule("a.example", 3), syncSig())
	if f.Etag() == one {
		t.Fatal("etag did not change on version bump")
	}
}

func TestSyncSnapshotFilters(t *testing.T) {
	f, _ := newTestFarm(t, Config{})
	for _, site := range []string{"a.example", "b.example", "c.example"} {
		f.Put(syncRule(site, 1), syncSig())
	}
	f.Put(syncRule("d.example", 1), syncSig())
	f.Invalidate("d.example")

	all := f.SyncSnapshot(nil)
	if len(all.Rules) != 3 || len(all.Tombstones) != 1 {
		t.Fatalf("unfiltered snapshot: %d rules, %d tombstones", len(all.Rules), len(all.Tombstones))
	}
	if all.Version != SnapshotVersion {
		t.Fatalf("snapshot version = %d", all.Version)
	}

	part := f.SyncSnapshot([]string{"b.example", "d.example"})
	if len(part.Rules) != 1 || part.Rules[0].Site != "b.example" {
		t.Fatalf("filtered rules = %+v", part.Rules)
	}
	if len(part.Tombstones) != 1 || part.Tombstones[0].Site != "d.example" {
		t.Fatalf("filtered tombstones = %+v", part.Tombstones)
	}

	// The wire snapshot must survive its own codec (what a peer pull
	// actually decodes).
	data, err := EncodeSnapshot(part)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(back.Rules) != 1 || len(back.Tombstones) != 1 {
		t.Fatalf("round-tripped snapshot: %+v", back)
	}
}

func TestSnapshotCodecReconcilesTombstones(t *testing.T) {
	// A snapshot holding both a rule and a tombstone for one site is
	// reconciled by the codec under the version conflict rule.
	evictedAt := time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC)
	in := Snapshot{
		Rules: []StoredRule{
			{Rule: syncRule("dead.example", 2), Signature: syncSig()},
			{Rule: syncRule("alive.example", 5), Signature: syncSig()},
		},
		Tombstones: []Tombstone{
			{Site: "dead.example", Version: 2, EvictedAt: evictedAt},
			{Site: "alive.example", Version: 4, EvictedAt: evictedAt},
		},
	}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out.Rules) != 1 || out.Rules[0].Site != "alive.example" {
		t.Fatalf("rules = %+v, want only alive.example (its rule outranks its tombstone)", out.Rules)
	}
	if len(out.Tombstones) != 1 || out.Tombstones[0].Site != "dead.example" {
		t.Fatalf("tombstones = %+v, want only dead.example (its tombstone outranks its rule)", out.Tombstones)
	}
	if !out.Tombstones[0].EvictedAt.Equal(evictedAt) {
		t.Fatalf("EvictedAt = %v, want %v", out.Tombstones[0].EvictedAt, evictedAt)
	}
}

func TestStoreReopenAfterTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	f, _ := newTestFarm(t, Config{StorePath: path})
	f.Put(syncRule("torn.example", 1), syncSig())
	if err := f.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Simulate a torn write: the snapshot loses its tail mid-flush (a
	// crash between write and fsync on a non-atomic filesystem).
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict reopen refuses the torn snapshot outright...
	if _, err := New(Config{StorePath: path}); err == nil {
		t.Fatal("New accepted a torn store file")
	}
	// ...and the serving configuration recovers to an empty farm whose
	// next save overwrites the bad file.
	f2, _ := newTestFarm(t, Config{StorePath: path, RecoverCorruptStore: true})
	if f2.Len() != 0 {
		t.Fatalf("recovered farm has %d rules, want 0", f2.Len())
	}
	f2.Put(syncRule("torn.example", 2), syncSig())
	if err := f2.Save(); err != nil {
		t.Fatalf("Save after recovery: %v", err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot after rewrite: %v", err)
	}
	if len(snap.Rules) != 1 || snap.Rules[0].Version != 2 {
		t.Fatalf("rewritten store = %+v", snap.Rules)
	}
}

func TestSaveLoadRoundTripsTombstones(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	f, _ := newTestFarm(t, Config{StorePath: path})
	f.Put(syncRule("kept.example", 2), syncSig())
	f.Put(syncRule("gone.example", 3), syncSig())
	f.Invalidate("gone.example")
	if err := f.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// The persisted snapshot carries the eviction.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"tombstones"`)) {
		t.Fatalf("store file has no tombstones section:\n%s", data)
	}

	// A restarted farm remembers it: the dead rule cannot be resurrected
	// by a stale peer even though the process is fresh.
	f2, _ := newTestFarm(t, Config{StorePath: path})
	if f2.Len() != 1 {
		t.Fatalf("reloaded farm has %d rules, want 1", f2.Len())
	}
	if f2.TombstoneCount() != 1 {
		t.Fatalf("reloaded TombstoneCount = %d, want 1", f2.TombstoneCount())
	}
	if f2.ApplyRemote(StoredRule{Rule: syncRule("gone.example", 3), Signature: syncSig()}) {
		t.Fatal("restart forgot the eviction: stale rule resurrected")
	}
}
