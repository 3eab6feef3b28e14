package separator

// Frozen reference implementations of the five Omini separator heuristics
// plus the BYU pair, copied verbatim from the pre-optimization code (repeated
// per-heuristic child scans, strings.Join path building). The differential
// tests in diff_test.go pin the optimized shared-index implementations to
// these on randomized trees; do not "improve" this file.

import (
	"math"
	"sort"
	"strings"

	"omini/internal/tagtree"
)

// slowTagStat is the per-tag count and first appearance the references
// key by tag name.
type slowTagStat struct {
	count int
	first int
}

func slowChildStats(sub *tagtree.Node) map[string]slowTagStat {
	stats := make(map[string]slowTagStat)
	for i, c := range sub.Children {
		if c.IsContent() {
			continue
		}
		s, ok := stats[c.Tag]
		if !ok {
			s.first = i
		}
		s.count++
		stats[c.Tag] = s
	}
	return stats
}

// --- SD ---

func slowSDRank(sub *tagtree.Node) []Ranked {
	stats := slowChildStats(sub)
	if len(stats) == 0 {
		return nil
	}
	maxCount := 0
	for _, s := range stats {
		if s.count > maxCount {
			maxCount = s.count
		}
	}
	threshold := maxCount / 3
	if threshold < 2 {
		threshold = 2
	}

	type entry struct {
		tag   string
		sigma float64
		count int
		first int
	}
	var entries []entry
	for tag, s := range stats {
		if s.count < threshold {
			continue
		}
		gaps := slowConsecutiveDistances(sub, tag)
		if len(gaps) == 0 {
			continue
		}
		entries = append(entries, entry{
			tag:   tag,
			sigma: slowStddev(gaps),
			count: s.count,
			first: s.first,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.sigma != b.sigma {
			return a.sigma < b.sigma
		}
		if a.count != b.count {
			return a.count > b.count
		}
		return a.first < b.first
	})
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0; j-- {
			hi, lo := entries[j], entries[j-1]
			near := hi.sigma-lo.sigma <= 0.05*hi.sigma
			better := hi.count > lo.count ||
				(hi.count == lo.count && hi.first < lo.first)
			if !near || !better {
				break
			}
			entries[j-1], entries[j] = hi, lo
		}
	}
	out := make([]Ranked, len(entries))
	for i, e := range entries {
		out[i] = Ranked{Tag: e.tag, Score: e.sigma}
	}
	return out
}

func slowConsecutiveDistances(sub *tagtree.Node, tag string) []float64 {
	var (
		gaps    []float64
		started bool
		acc     int
	)
	for _, c := range sub.Children {
		if !c.IsContent() && c.Tag == tag {
			if started {
				gaps = append(gaps, float64(acc))
			}
			started = true
			acc = 0
		}
		if started {
			acc += c.NodeSize()
		}
	}
	return gaps
}

func slowStddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return math.Sqrt(variance)
}

// --- RP ---

func slowRPRank(sub *tagtree.Node) []Ranked {
	pairs := slowRPPairs(sub)
	stats := slowChildStats(sub)
	var out []Ranked
	seen := make(map[string]bool)
	for _, p := range pairs {
		if p.Count < rpMinPairCount {
			continue
		}
		tag := p.Pair.First
		if _, isChild := stats[tag]; !isChild || seen[tag] {
			continue
		}
		seen[tag] = true
		out = append(out, Ranked{Tag: tag, Score: float64(p.Count)})
	}
	return out
}

func slowRPPairs(sub *tagtree.Node) []RPPair {
	var (
		pairCount = make(map[TagPair]int)
		tagCount  = make(map[string]int)
		firstSeen = make(map[TagPair]int)
		seq       int
	)
	addPair := func(a, b string) {
		p := TagPair{First: a, Second: b}
		if pairCount[p] == 0 {
			firstSeen[p] = seq
		}
		pairCount[p]++
		seq++
	}

	prevEmpty := ""
	for _, c := range sub.Children {
		if c.IsContent() {
			prevEmpty = ""
			continue
		}
		tagCount[c.Tag]++
		if prevEmpty != "" {
			addPair(prevEmpty, c.Tag)
		}
		if len(c.Children) > 0 {
			if g := c.Children[0]; !g.IsContent() {
				tagCount[g.Tag]++
				addPair(c.Tag, g.Tag)
			}
			prevEmpty = ""
			continue
		}
		prevEmpty = c.Tag
	}

	out := make([]RPPair, 0, len(pairCount))
	for p, c := range pairCount {
		minTag := tagCount[p.First]
		if tc := tagCount[p.Second]; tc < minTag {
			minTag = tc
		}
		diff := c - minTag
		if diff < 0 {
			diff = -diff
		}
		out = append(out, RPPair{Pair: p, Count: c, Diff: diff})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Diff != b.Diff {
			return a.Diff < b.Diff
		}
		return firstSeen[a.Pair] < firstSeen[b.Pair]
	})
	return out
}

// --- SB ---

func slowSBRank(sub *tagtree.Node) []Ranked {
	pairs := slowSBPairs(sub)
	stats := slowChildStats(sub)
	var out []Ranked
	seen := make(map[string]bool)
	for _, p := range pairs {
		tag := p.Pair.First
		if _, isChild := stats[tag]; !isChild || seen[tag] {
			continue
		}
		seen[tag] = true
		out = append(out, Ranked{Tag: tag, Score: float64(p.Count)})
	}
	return out
}

func slowSBPairs(sub *tagtree.Node) []SBPair {
	pairCount := make(map[TagPair]int)
	firstSeen := make(map[TagPair]int)
	prev := ""
	for i, c := range sub.Children {
		if c.IsContent() {
			prev = ""
			continue
		}
		if prev != "" {
			p := TagPair{First: prev, Second: c.Tag}
			if pairCount[p] == 0 {
				firstSeen[p] = i
			}
			pairCount[p]++
		}
		prev = c.Tag
	}
	out := make([]SBPair, 0, len(pairCount))
	for p, c := range pairCount {
		out = append(out, SBPair{Pair: p, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return firstSeen[a.Pair] < firstSeen[b.Pair]
	})
	return out
}

// --- IPS ---

func slowIPSRank(sub *tagtree.Node) []Ranked {
	stats := slowChildStats(sub)
	var out []Ranked
	seen := make(map[string]bool)
	appendTag := func(tag string, pos int) {
		if seen[tag] {
			return
		}
		if s, ok := stats[tag]; !ok || s.count < ipsMinCount {
			return
		}
		seen[tag] = true
		out = append(out, Ranked{Tag: tag, Score: float64(pos)})
	}
	pos := 1
	for _, tag := range ipsTagLists[sub.Tag] {
		appendTag(tag, pos)
		pos++
	}
	for _, tag := range IPSList {
		appendTag(tag, pos)
		pos++
	}
	return out
}

// --- PP ---

func slowPPRank(sub *tagtree.Node) []Ranked {
	paths := slowPPPaths(sub)
	stats := slowChildStats(sub)
	type best struct {
		count  int
		length int
	}
	bests := make(map[string]best)
	var tags []string
	for _, pc := range paths {
		tag := pc.Path
		if dot := strings.IndexByte(tag, '.'); dot >= 0 {
			tag = tag[:dot]
		}
		length := strings.Count(pc.Path, ".") + 1
		b, ok := bests[tag]
		if !ok {
			tags = append(tags, tag)
			bests[tag] = best{count: pc.Count, length: length}
			continue
		}
		if pc.Count > b.count || (pc.Count == b.count && length > b.length) {
			b.count, b.length = pc.Count, length
			bests[tag] = b
		}
	}
	sort.SliceStable(tags, func(i, j int) bool {
		a, b := bests[tags[i]], bests[tags[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		if a.length != b.length {
			return a.length > b.length
		}
		return stats[tags[i]].first < stats[tags[j]].first
	})
	out := make([]Ranked, 0, len(tags))
	for _, tag := range tags {
		if bests[tag].count < 2 {
			continue
		}
		out = append(out, Ranked{Tag: tag, Score: float64(bests[tag].count)})
	}
	return out
}

func slowPPPaths(sub *tagtree.Node) []PathCount {
	counts := make(map[string]int)
	var stack []string
	var walk func(n *tagtree.Node)
	walk = func(n *tagtree.Node) {
		if n.IsContent() {
			return
		}
		stack = append(stack, n.Tag)
		counts[strings.Join(stack, ".")]++
		for _, c := range n.Children {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	for _, c := range sub.Children {
		walk(c)
	}
	out := make([]PathCount, 0, len(counts))
	for p, c := range counts {
		out = append(out, PathCount{Path: p, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		la, lb := strings.Count(a.Path, "."), strings.Count(b.Path, ".")
		if la != lb {
			return la > lb
		}
		return a.Path < b.Path
	})
	return out
}

// --- BYU HC / IT ---

func slowHCRank(sub *tagtree.Node) []Ranked {
	stats := slowChildStats(sub)
	type entry struct {
		tag   string
		count int
		first int
	}
	entries := make([]entry, 0, len(stats))
	for tag, s := range stats {
		entries = append(entries, entry{tag: tag, count: s.count, first: s.first})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.count != b.count {
			return a.count > b.count
		}
		return a.first < b.first
	})
	out := make([]Ranked, len(entries))
	for i, e := range entries {
		out[i] = Ranked{Tag: e.tag, Score: float64(e.count)}
	}
	return out
}

func slowITRank(sub *tagtree.Node) []Ranked {
	stats := slowChildStats(sub)
	var out []Ranked
	for pos, tag := range itList {
		s, ok := stats[tag]
		if !ok || s.count < itMinCount {
			continue
		}
		out = append(out, Ranked{Tag: tag, Score: float64(pos + 1)})
	}
	return out
}
