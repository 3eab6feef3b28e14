// Package separator implements the object separator extraction heuristics
// of the paper's Section 5 — SD (standard deviation), RP (repeating
// pattern), IPS (identifiable path separator), SB (sibling tag) and PP
// (partial path) — plus the two BYU heuristics the paper compares against,
// HC (highest count) and IT (identifiable tag).
//
// Each heuristic independently produces a ranked list of candidate separator
// tags for a chosen object-rich subtree. Following the paper, the candidate
// tags are the tag names appearing among the *child* nodes of the subtree
// root ("it is sufficient to consider only the child nodes in the chosen
// subtree as the candidate separator tags"). A heuristic may return an
// empty list when it has no answer (e.g. RP with no repeating pairs).
package separator

// Ranked is one entry of a heuristic's candidate-tag ranking.
type Ranked struct {
	// Tag is the candidate separator tag name.
	Tag string
	// Score is the heuristic's figure of merit for reports. Its meaning is
	// heuristic-specific (σ for SD, pair count for RP/SB, path count for
	// PP, appearance count for HC, list position for IPS/IT); the ranking
	// order of the returned slice is authoritative, not the score.
	Score float64
}

// Heuristic ranks candidate separator tags for a chosen subtree.
type Heuristic interface {
	// Name returns the short name used in reports ("SD", "RP", ...).
	Name() string
	// Letter returns the one-letter acronym used in combination names
	// (SD→S, RP→R, IPS→I, PP→P, SB→B, HC→H, IT→T).
	Letter() byte
	// Rank returns candidate tags for the subtree st indexes, best first,
	// sharing the child scan and the tag index with every other heuristic
	// ranking the same subtree. An empty slice means the heuristic has no
	// answer for this subtree. Rank charges its loops to the page's guard
	// and stops with the guard's error when it trips.
	Rank(st *Stats) ([]Ranked, error)
}

// All returns the five Omini heuristics in the paper's canonical order.
func All() []Heuristic {
	return []Heuristic{SD(), RP(), IPS(), PP(), SB()}
}

// ByName returns the heuristic with the given short name, or nil. Both the
// Omini five and the BYU pair are recognized.
func ByName(name string) Heuristic {
	switch name {
	case "SD":
		return SD()
	case "RP":
		return RP()
	case "IPS":
		return IPS()
	case "PP":
		return PP()
	case "SB":
		return SB()
	case "HC":
		return HC()
	case "IT":
		return IT()
	default:
		return nil
	}
}

// Tags extracts just the tag names from a ranking, preserving order.
func Tags(ranked []Ranked) []string {
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.Tag
	}
	return out
}

// RankOf returns the 1-based position of tag in the ranking, or 0 when the
// tag does not appear.
func RankOf(ranked []Ranked, tag string) int {
	for i, r := range ranked {
		if r.Tag == tag {
			return i + 1
		}
	}
	return 0
}
