// Package rules defines the extraction rule of the paper's Section 6.6:
// because the structure of a web site rarely changes, the minimal
// subtree path and separator tag discovered for one page of a site can be
// stored and replayed on its other pages, skipping subtree and separator
// discovery entirely — the second, order-of-magnitude-faster extraction
// method of Table 17. The rules are cached, persisted and replicated by
// internal/farm, whose snapshot codec is their one file and wire format.
package rules

import "time"

// Rule is a learned extraction rule for one site.
type Rule struct {
	// Site identifies the web site the rule was learned from.
	Site string `json:"site"`
	// SubtreePath is the dot-notation path of the object-rich subtree.
	SubtreePath string `json:"subtreePath"`
	// Separator is the object separator tag.
	Separator string `json:"separator"`
	// LearnedAt records when the rule was discovered (RFC 3339 in JSON).
	LearnedAt time.Time `json:"learnedAt"`
	// Version counts how many times the site's rule has been learned:
	// 1 on first discovery, incremented on every drift- or
	// mismatch-triggered relearn. Zero means the rule predates
	// versioning (treated as version 1).
	Version int `json:"version,omitempty"`
}

// Valid reports whether the rule carries the fields replay requires.
func (r Rule) Valid() bool {
	return r.SubtreePath != "" && r.Separator != ""
}
