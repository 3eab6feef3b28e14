package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"omini/internal/rules"
	"omini/internal/tagtree"
)

// The persisted rule store: a versioned JSON snapshot of every learned
// rule plus its training-page signature, written atomically (temp file
// + fsync + rename, then a directory fsync) so a crash mid-save can
// never leave a torn or zero-length store. The same codec is the
// ruledist wire format, the body of GET /rules and the file behind
// ominiserve -rules and omini -rules: EncodeSnapshot and DecodeSnapshot
// are the only writer and reader of learned rules.

// SnapshotVersion is the store format version this package writes and
// the newest it reads. Version 2 added tombstones: deliberately evicted
// rules are recorded so anti-entropy sync between nodes cannot
// resurrect a redesigned site's dead rule. Version-1 files (which
// simply carry no tombstones) still load.
const SnapshotVersion = 2

// ErrSnapshotVersion is returned when a snapshot was written by a
// newer format version than this binary understands.
var ErrSnapshotVersion = errors.New("farm: snapshot format version too new")

// ErrDuplicateSite is returned when a decoded snapshot holds two rules
// for one site: letting the last one win would mask a corrupt or
// hand-edited file, so the whole snapshot is rejected.
var ErrDuplicateSite = errors.New("farm: duplicate site in snapshot")

// StoredRule is one persisted rule: the replayable extraction rule,
// the training-page signature for drift revalidation, and the hit
// count at save time (informational).
type StoredRule struct {
	rules.Rule
	// Signature is the training page's tag-path structure; an empty
	// signature disables drift checks for the rule until it is
	// relearned.
	Signature tagtree.Signature `json:"signature,omitempty"`
	// Hits is the rule's fast-path hit count when the snapshot was
	// taken.
	Hits int64 `json:"hits,omitempty"`
}

// Tombstone records a deliberately killed rule: the site and the
// version the rule carried when drift detection, a fast-path mismatch
// or an explicit invalidation evicted it. During anti-entropy sync a
// tombstone suppresses any peer copy at or below its version, so a
// stale node cannot resurrect a redesigned site's dead rule; a fresh
// relearn lands above the tombstone's version and clears it.
type Tombstone struct {
	Site      string    `json:"site"`
	Version   int       `json:"version"`
	EvictedAt time.Time `json:"evictedAt"`
}

// Snapshot is the on-disk envelope (and the ruledist wire format).
type Snapshot struct {
	Version    int          `json:"version"`
	Rules      []StoredRule `json:"rules"`
	Tombstones []Tombstone  `json:"tombstones,omitempty"`
}

// DecodeSnapshot parses a snapshot from its JSON encoding. The
// versioned envelope (v1 without tombstones, v2 with) and a bare rules
// array (the pre-envelope rule file) are both accepted. A snapshot
// that names one site in two rules fails with ErrDuplicateSite, and
// one declaring a version above SnapshotVersion with
// ErrSnapshotVersion. The result is canonical — invalid rules and
// malformed tombstones dropped, rules and tombstones reconciled under
// the version conflict rule, sorted by site — so decode∘encode is a
// fixed point.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if isJSONArray(data) {
		if err := json.Unmarshal(data, &snap.Rules); err != nil {
			return Snapshot{}, fmt.Errorf("farm: decode rules array: %w", err)
		}
	} else {
		if err := json.Unmarshal(data, &snap); err != nil {
			return Snapshot{}, fmt.Errorf("farm: decode snapshot: %w", err)
		}
		if snap.Version > SnapshotVersion {
			return Snapshot{}, fmt.Errorf("%w: %d > %d", ErrSnapshotVersion, snap.Version, SnapshotVersion)
		}
	}
	snap.Version = SnapshotVersion
	var err error
	snap.Rules, snap.Tombstones, err = canonicalize(snap.Rules, snap.Tombstones, true)
	if err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// EncodeSnapshot serializes a snapshot in canonical form: current
// format version, invalid entries dropped, one entry per site (the
// last rule given for a site wins), rules/tombstones reconciled,
// sorted. The caller's slices are not modified.
func EncodeSnapshot(snap Snapshot) ([]byte, error) {
	snap.Version = SnapshotVersion
	snap.Rules, snap.Tombstones, _ = canonicalize(slices.Clone(snap.Rules), slices.Clone(snap.Tombstones), false)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("farm: encode snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// canonicalize produces the canonical rule and tombstone lists in
// place, applying the cluster-wide version conflict rule between them:
// a tombstone at or above a rule's version suppresses the rule (the
// eviction is newer knowledge); a rule above the tombstone's version
// clears the tombstone (the relearn superseded the eviction). The
// result never holds both a rule and a tombstone for one site. With
// strict, two rules naming one site are an ErrDuplicateSite error.
func canonicalize(rs []StoredRule, ts []Tombstone, strict bool) ([]StoredRule, []Tombstone, error) {
	rs, err := canonicalRules(rs, strict)
	if err != nil {
		return nil, nil, err
	}
	ts = canonicalTombstones(ts)
	// Both lists are sorted by site with one entry per site, so one
	// merge pass pairs each site's rule with its tombstone.
	outR, outT := rs[:0], ts[:0]
	for i, j := 0, 0; i < len(rs) || j < len(ts); {
		switch {
		case j == len(ts) || i < len(rs) && rs[i].Site < ts[j].Site:
			outR = append(outR, rs[i])
			i++
		case i == len(rs) || ts[j].Site < rs[i].Site:
			outT = append(outT, ts[j])
			j++
		case ts[j].Version >= rs[i].Version:
			outT = append(outT, ts[j]) // the tombstone wins; the rule stays dead
			i, j = i+1, j+1
		default:
			outR = append(outR, rs[i]) // a newer rule cleared this tombstone
			i, j = i+1, j+1
		}
	}
	if len(outT) == 0 {
		outT = nil // encode omits the field entirely (omitempty)
	}
	return outR, outT, nil
}

// canonicalRules drops invalid rules, sorts by site and keeps one rule
// per site — the last valid one given, unless strict makes a second
// rule naming a site an error. It reorders rs in place and never
// returns nil, so an empty list encodes as [].
func canonicalRules(rs []StoredRule, strict bool) ([]StoredRule, error) {
	named := rs[:0]
	for _, r := range rs {
		if r.Site != "" {
			named = append(named, r)
		}
	}
	slices.SortStableFunc(named, func(a, b StoredRule) int { return strings.Compare(a.Site, b.Site) })
	out := named[:0]
	prev := ""
	for _, r := range named {
		if strict && r.Site == prev {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateSite, r.Site)
		}
		prev = r.Site
		if !r.Valid() {
			continue
		}
		if r.Version <= 0 {
			r.Version = 1 // pre-versioning rules normalize to v1
		}
		if n := len(out); n > 0 && out[n-1].Site == r.Site {
			out[n-1] = r
		} else {
			out = append(out, r)
		}
	}
	if out == nil {
		out = []StoredRule{}
	}
	return out, nil
}

// canonicalTombstones drops malformed tombstones, sorts by site and
// keeps one per site (the highest version). It reorders ts in place.
func canonicalTombstones(ts []Tombstone) []Tombstone {
	slices.SortStableFunc(ts, func(a, b Tombstone) int { return strings.Compare(a.Site, b.Site) })
	out := ts[:0]
	for _, t := range ts {
		if t.Site == "" || t.Version <= 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Site == t.Site {
			if t.Version >= out[n-1].Version {
				out[n-1] = t
			}
		} else {
			out = append(out, t)
		}
	}
	return out
}

// isJSONArray reports whether the document's first token opens an
// array (the pre-envelope rule file) rather than an envelope.
func isJSONArray(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b == '['
	}
	return false
}

// LoadSnapshot reads and decodes a snapshot file.
func LoadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("farm: load snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// SaveSnapshot writes the snapshot atomically and durably: encode,
// write to a temp file in the destination directory, fsync the temp
// file, rename into place, fsync the directory. The two fsyncs are
// what make the rename crash-safe — without them a power cut shortly
// after the rename can surface as a zero-length (or vanished) store
// on some filesystems, which is exactly the torn state the atomic
// rename exists to rule out. Returns the encoded size.
func SaveSnapshot(path string, snap Snapshot) (int64, error) {
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rulestore-*")
	if err != nil {
		return 0, fmt.Errorf("farm: snapshot temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("farm: snapshot dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("farm: snapshot dir fsync: %w", err)
	}
	return nil
}
