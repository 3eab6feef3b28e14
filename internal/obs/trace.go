package obs

// The decision trace: a structured record of *why* one extraction came out
// the way it did — which subtrees the Section 4 heuristics ranked where,
// how each Section 5 separator heuristic voted, and what the Section 6
// probabilistic combination concluded. It is the per-request analogue of
// the paper's evaluation tables, attached to a live result instead of
// averaged over a corpus. The types here are deliberately generic (names,
// keys, scores) so the package stays free of pipeline imports; internal/core
// fills them in.

// RankedItem is one entry of a ranked list: a key (a subtree path, a
// separator tag), the score the ranker assigned, and its 1-based rank.
type RankedItem struct {
	Rank  int     `json:"rank"`
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// Ranking is one named ranker's ordered candidate list.
type Ranking struct {
	// Name identifies the ranker ("SD", "RP", "IPS", "PP", "SB", ...).
	Name string `json:"name"`
	// Items are the ranker's candidates, best first.
	Items []RankedItem `json:"items"`
}

// DecisionTrace explains one extraction end to end. Serialize it with
// encoding/json; ?trace=1 on the HTTP service and `omini -trace` both emit
// exactly this structure.
type DecisionTrace struct {
	// TraceID is the distributed trace this extraction belongs to,
	// correlating the inline trace with /tracez, the access log and
	// histogram exemplars. JSON renders it as 32 hex digits, and omits
	// the zero ID of a recorder without identity.
	TraceID TraceID `json:"traceId,omitzero"`
	// SubtreePath is the chosen object-rich subtree.
	SubtreePath string `json:"subtreePath"`
	// SubtreeRanking lists the top-ranked subtree candidates (path + score)
	// of the configured subtree heuristic.
	SubtreeRanking []RankedItem `json:"subtreeRanking,omitempty"`
	// SeparatorRankings holds each separator heuristic's own candidate
	// ranking, before combination.
	SeparatorRankings []Ranking `json:"separatorRankings,omitempty"`
	// Combined is the probabilistically combined candidate ranking; its
	// scores are compound probabilities.
	Combined []RankedItem `json:"combined,omitempty"`
	// Separator is the winning separator tag.
	Separator string `json:"separator"`
	// Confidence is the extraction's self-assessed confidence in [0,1].
	Confidence float64 `json:"confidence"`
	// FromRule marks a cached-rule replay: discovery was skipped, so the
	// ranking fields are empty and the winner came from the rule.
	FromRule bool `json:"fromRule,omitempty"`
	// Objects is the number of refined objects produced.
	Objects int `json:"objects"`
	// Phases are the completed pipeline spans, in completion order.
	Phases []PhaseSample `json:"phases,omitempty"`
	// Charges are the governor budgets this extraction consumed
	// (tokens, nodes, objects), when it ran under a guard.
	Charges map[string]int64 `json:"governorCharges,omitempty"`
}
