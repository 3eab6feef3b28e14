package separator

// ipsMinCount is the appearance threshold below which a tag cannot be an
// IPS answer (Section 6.5). IPS demands three occurrences where IT accepts
// two: a tag appearing twice (an intro paragraph and its blurb) is routine
// page furniture, and filtering it is part of what makes IPS "much higher
// extensibility and scalability" than the fixed-list IT it evolved from.
const ipsMinCount = 3

// ipsTagLists is the per-subtree-type object separator table of the paper's
// Table 4: for each kind of subtree root, the tags observed to separate
// objects within it, most likely first.
var ipsTagLists = map[string][]string{
	"body":       {"table", "p", "hr", "ul", "li", "blockquote", "div", "pre", "b", "a"},
	"table":      {"tr", "b"},
	"form":       {"table", "p", "dl"},
	"td":         {"table", "hr", "dt", "li", "p", "tr", "font"},
	"dl":         {"dt", "dd"},
	"ol":         {"li"},
	"ul":         {"li"},
	"blockquote": {"p"},
}

// IPSList is the global ranking of object separator tags (Section 5.3),
// derived in the paper from the separator-probability distribution of
// Table 5. It is used for subtree types without an entry in Table 4 and for
// candidate tags beyond the per-type list.
var IPSList = []string{
	"tr", "table", "p", "li", "hr", "dt", "ul", "pre", "font", "dl", "div",
	"dd", "blockquote", "b", "a", "span", "td", "br", "h4", "h3", "h2", "h1",
	"strong", "em", "i",
}

// ips is the Identifiable Path Separator heuristic of Section 5.3, Omini's
// evolution of Embley's IT: instead of one predefined separator list for
// every page, the list depends on the tag at which the chosen subtree is
// anchored — tr first for tables, li first for lists, table first for body
// and form subtrees.
type ips struct{}

// IPS returns the identifiable path separator heuristic.
func IPS() Heuristic { return ips{} }

func (ips) Name() string { return "IPS" }

func (ips) Letter() byte { return 'I' }

func (ips) Rank(st *Stats) ([]Ranked, error) {
	// First the per-subtree-type list (Table 4), then the global IPSList
	// for any remaining candidates.
	lists := [2][]string{ipsTagLists[st.sub.Tag], IPSList}
	seen := st.seen()
	out := st.out(min(st.k, len(lists[0])+len(lists[1])))
	pos := 0
	for _, list := range lists {
		for _, tag := range list {
			pos++
			if err := st.g.Poll(); err != nil {
				return nil, err
			}
			id, ok := st.Index(tag)
			if !ok || seen[id] != 0 || st.tags[id].count < ipsMinCount {
				continue
			}
			seen[id] = 1
			out = append(out, Ranked{Tag: st.tags[id].tag, Score: float64(pos)})
		}
	}
	return out, nil
}
