// Package core wires the Omini pipeline together (the architecture of the
// paper's Figure 3): normalize a fetched page into a well-formed document,
// build its tag tree, locate the object-rich subtree, discover the object
// separator with the combined heuristic algorithm, construct candidate
// objects and refine them. It also implements the cached-rule fast path of
// Section 6.6.
//
// Every phase runs under an obs span (Phases: tokenize → tidy → build →
// subtree → separator → extract), so extractions feed per-phase latency
// histograms in the context's metrics registry; those are the measurements
// behind the Table 16/17 experiments. Attach an obs.TraceRecorder that
// wants decisions (obs.WithTraceRecorder) to the context and the result
// additionally carries a full decision trace — which subtrees ranked
// where, how each separator heuristic voted, and what the combination
// concluded.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"omini/internal/combine"
	"omini/internal/extract"
	"omini/internal/govern"
	"omini/internal/htmlparse"
	"omini/internal/obs"
	"omini/internal/rules"
	"omini/internal/separator"
	"omini/internal/subtree"
	"omini/internal/tagtree"
)

// Errors the pipeline can return.
var (
	// ErrNoObjects is returned when no separator candidate survives — the
	// page does not appear to contain a list of objects.
	ErrNoObjects = errors.New("core: no object separator found")
	// ErrRuleMismatch is returned when a cached rule does not apply to the
	// page (the site changed its structure).
	ErrRuleMismatch = errors.New("core: cached rule does not match page")
)

// Limits bounds the resources one extraction may consume; see
// govern.Limits for field semantics. Extractions also return
// *govern.ErrLimitExceeded and govern.ErrDeadline (wrapped) when a
// budget is blown.
type Limits = govern.Limits

// DefaultLimits returns the production resource budgets (govern.Default).
func DefaultLimits() Limits { return govern.Default() }

// Options configure an Extractor. The zero value selects the paper's
// defaults: the compound subtree heuristic, the five-heuristic RSIPB
// combination with the paper's probability table, and refinement enabled.
type Options struct {
	// Subtree ranks object-rich subtrees. Default: subtree.Compound().
	Subtree subtree.Heuristic
	// Separators are combined to choose the separator tag. Default:
	// separator.All() (the RSIPB combination).
	Separators []separator.Heuristic
	// Probs supplies the rank-probability evidence. Default:
	// combine.PaperProbs().
	Probs combine.ProbTable
	// SkipRefine disables Phase 3 refinement (used by ablations).
	SkipRefine bool
	// SkipNormalize feeds raw HTML to the tree builder without the tidy
	// pass (used by ablations; unsafe on sloppy pages).
	SkipNormalize bool
	// Refine tunes the refinement thresholds.
	Refine extract.RefineOptions
	// Limits is the resource governor for each extraction. Zero fields
	// take the production defaults (DefaultLimits); use
	// govern.Unlimited() to run ungoverned.
	Limits Limits
}

// Extractor runs the Omini object extraction pipeline.
type Extractor struct {
	opts Options
}

// New returns an Extractor with the given options.
func New(opts Options) *Extractor {
	if opts.Subtree == nil {
		opts.Subtree = subtree.Compound()
	}
	if opts.Separators == nil {
		opts.Separators = separator.All()
	}
	if opts.Probs == nil {
		opts.Probs = combine.PaperProbs()
	}
	opts.Limits = opts.Limits.WithDefaults()
	return &Extractor{opts: opts}
}

// countFailure records a failed extraction: always core.errors, plus a
// per-cause counter — one series per limit kind, one for deadline
// expiry, one for caller cancellation — so /metricsz distinguishes
// "pages are oversized" from "pages are slow".
func countFailure(reg *obs.Registry, err error) {
	extractErrors.Add(reg, 1)
	var lim *govern.ErrLimitExceeded
	switch {
	case errors.As(err, &lim):
		limitCounter(lim.Kind).Add(reg, 1)
	case errors.Is(err, govern.ErrDeadline):
		deadlineExceeded.Add(reg, 1)
	case errors.Is(err, context.Canceled):
		cancelled.Add(reg, 1)
	}
}

// Result is the outcome of one extraction.
type Result struct {
	// Objects are the extracted data objects, refined unless disabled.
	Objects []extract.Object
	// Raw are the candidate objects before refinement.
	Raw []extract.Object
	// SubtreePath is the path expression of the chosen subtree.
	SubtreePath string
	// Separator is the chosen object separator tag.
	Separator string
	// Candidates is the combined probability ranking the separator was
	// chosen from.
	Candidates []combine.Candidate
	// Tree is the page's tag tree (for callers that inspect structure).
	Tree *tagtree.Node
	// Trace is the decision trace of this extraction, present only when
	// the extraction ran under a context carrying an obs.TraceRecorder
	// that wants decisions (TraceRecorder.WantsDecisions).
	Trace *obs.DecisionTrace
}

// Rule converts the result into a cacheable extraction rule for the site.
func (r *Result) Rule(site string) rules.Rule {
	return rules.Rule{
		Site:        site,
		SubtreePath: r.SubtreePath,
		Separator:   r.Separator,
		LearnedAt:   time.Now().UTC(),
	}
}

// Extract runs the full discovery pipeline on raw HTML.
func (e *Extractor) Extract(html string) (*Result, error) {
	return e.ExtractContext(context.Background(), html)
}

// ExtractContext is Extract under a caller context: phase spans land in the
// context's metrics registry, and when the context carries a trace
// recorder (obs.WithTraceRecorder) the result's Trace explains the
// decisions.
func (e *Extractor) ExtractContext(ctx context.Context, html string) (*Result, error) {
	p := GetPage()
	defer p.retain(p.lend(html))
	return e.ExtractPage(ctx, p)
}

// ExtractPage is ExtractContext on a page: the result points into the
// page's memory, so it lives only as long as the page does (see Page).
// The separator it learns is cloned out of the page, so a rule made
// from the result outlives it.
func (e *Extractor) ExtractPage(ctx context.Context, p *Page) (*Result, error) {
	reg := obs.RegistryFrom(ctx)
	extractions.Add(reg, 1)
	// The guard owns the page deadline (Limits.Deadline).
	g := govern.NewGuard(ctx, e.opts.Limits)
	rec := obs.TraceRecorderFrom(ctx)
	if rec != nil {
		// Failed extractions carry their charges too: the deferred write
		// runs on every exit, so a blown budget shows what was consumed.
		defer recordCharges(rec, g)
	}
	root, err := e.parse(ctx, p, g)
	if err != nil {
		countFailure(reg, err)
		return nil, err
	}
	res := &Result{Tree: root}

	var ranked []subtree.Ranked
	obs.Leaf(ctx, phaseSubtree, func() { ranked, err = e.opts.Subtree.Rank(root, g) })
	if err != nil {
		countFailure(reg, err)
		return nil, fmt.Errorf("core: subtree: %w", err)
	}
	sub := root
	if len(ranked) > 0 {
		sub = ranked[0].Node
	}
	res.SubtreePath = tagtree.Path(sub)

	// The paper times "Object Separator" (running the heuristics) apart
	// from "Combine Heuristics" (merging the rankings); here both happen
	// inside combine.Combine, so the separator span covers both.
	var cands []combine.Candidate
	var lists []combine.RankedList
	obs.Leaf(ctx, phaseSeparator, func() { cands, lists, err = combine.Combine(sub, e.opts.Separators, e.opts.Probs, g) })
	if err != nil {
		countFailure(reg, err)
		return nil, fmt.Errorf("core: separator: %w", err)
	}
	if len(cands) == 0 {
		extractErrors.Add(reg, 1)
		return nil, fmt.Errorf("%w (subtree %s)", ErrNoObjects, res.SubtreePath)
	}
	res.Candidates = cands
	// The rule, the access log and the farm keep the separator past
	// the page.
	res.Separator = strings.Clone(cands[0].Tag)

	if err := e.construct(ctx, sub, res, g); err != nil {
		countFailure(reg, err)
		return nil, err
	}
	if rec != nil {
		recordCharges(rec, g)
		if rec.WantsDecisions() {
			res.Trace = buildTrace(res, ranked, lists, rec)
		}
	}
	return res, nil
}

// ExtractWithRule replays a cached rule on raw HTML, skipping subtree and
// separator discovery (the Table 17 fast path).
func (e *Extractor) ExtractWithRule(html string, rule rules.Rule) (*Result, error) {
	return e.ExtractWithRuleContext(context.Background(), html, rule)
}

// ExtractWithRuleContext is ExtractWithRule under a caller context, with
// the same span and trace behavior as ExtractContext.
func (e *Extractor) ExtractWithRuleContext(ctx context.Context, html string, rule rules.Rule) (*Result, error) {
	p := GetPage()
	defer p.retain(p.lend(html))
	return e.ExtractPageWithRule(ctx, p, rule)
}

// ExtractPageWithRule is ExtractWithRuleContext on a page, whose memory
// the result points into (see Page).
func (e *Extractor) ExtractPageWithRule(ctx context.Context, p *Page, rule rules.Rule) (*Result, error) {
	reg := obs.RegistryFrom(ctx)
	ruleExtractions.Add(reg, 1)
	if !rule.Valid() {
		ruleMismatches.Add(reg, 1)
		return nil, fmt.Errorf("%w: rule is incomplete", ErrRuleMismatch)
	}
	g := govern.NewGuard(ctx, e.opts.Limits)
	rec := obs.TraceRecorderFrom(ctx)
	if rec != nil {
		defer recordCharges(rec, g)
	}
	root, err := e.parse(ctx, p, g)
	if err != nil {
		countFailure(reg, err)
		return nil, err
	}
	res := &Result{Tree: root}

	var sub *tagtree.Node
	obs.Leaf(ctx, phaseSubtree, func() { sub = tagtree.FindPath(root, rule.SubtreePath) })
	if sub == nil {
		ruleMismatches.Add(reg, 1)
		return nil, fmt.Errorf("%w: path %s", ErrRuleMismatch, rule.SubtreePath)
	}
	res.SubtreePath = rule.SubtreePath
	res.Separator = rule.Separator

	if err := e.construct(ctx, sub, res, g); err != nil {
		countFailure(reg, err)
		return nil, err
	}
	if len(res.Raw) == 0 {
		ruleMismatches.Add(reg, 1)
		return nil, fmt.Errorf("%w: separator %q absent", ErrRuleMismatch, rule.Separator)
	}
	if rec != nil {
		recordCharges(rec, g)
		if rec.WantsDecisions() {
			res.Trace = buildTrace(res, nil, nil, rec)
			res.Trace.FromRule = true
		}
	}
	return res, nil
}

// parse runs Phase 1 — lexing, syntactic normalization, tag tree
// construction — as three observable spans, in the page's memory.
// Splitting tokenize from tidy costs one transient raw-token array
// relative to a fused lex→tidy stream; the per-phase visibility is the
// point (DESIGN.md §9). Parsing reuses the page's buffers, so a tree
// parsed from the page before is dead after it. Each phase runs under
// the page's guard, so an input past MaxInputBytes, a token-budget
// blowout, or an over-deep/over-large tree surfaces here as a typed
// govern error.
func (e *Extractor) parse(ctx context.Context, p *Page, g *govern.Guard) (*tagtree.Node, error) {
	var toks []htmlparse.Token
	var err error
	obs.Leaf(ctx, phaseTokenize, func() {
		p.lex.Reset(p.html)
		toks, err = p.lex.Tokenize(p.raw[:0], g)
	})
	// A failed phase leaves its token array, written past the length
	// the page knows, to the collector.
	p.raw = toks
	if err != nil {
		return nil, fmt.Errorf("core: tokenize: %w", err)
	}
	if !e.opts.SkipNormalize {
		obs.Leaf(ctx, phaseTidy, func() { toks, err = p.tidy.Normalize(p.norm[:0], toks, g) })
		p.norm = toks
		if err != nil {
			return nil, fmt.Errorf("core: tidy: %w", err)
		}
	}
	// With SkipNormalize the raw stream is unbalanced; Build recovers what
	// it can.
	var root *tagtree.Node
	obs.Leaf(ctx, phaseBuild, func() { root, err = p.tree.Build(toks, g) })
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	return root, nil
}

// construct runs Phase 3: object construction, then refinement unless
// disabled.
func (e *Extractor) construct(ctx context.Context, sub *tagtree.Node, res *Result, g *govern.Guard) error {
	var err error
	obs.Leaf(ctx, phaseExtract, func() {
		var raw []extract.Object
		if raw, err = extract.Construct(sub, res.Separator, g); err != nil {
			return
		}
		res.Raw = raw
		res.Objects = res.Raw
		if !e.opts.SkipRefine {
			res.Objects = extract.Refine(res.Raw, e.opts.Refine)
		}
	})
	if err != nil {
		return fmt.Errorf("core: construct: %w", err)
	}
	return nil
}

// traceTopN caps ranked lists in the decision trace; beyond the first few
// candidates the rankings carry no decision weight (the probability tables
// stop at rank 5).
const traceTopN = 5

// recordCharges stamps the guard's consumed budgets onto the trace
// recorder, so traces (inline and /tracez) show what the extraction
// cost the governor.
func recordCharges(rec *obs.TraceRecorder, g *govern.Guard) {
	tokens, nodes, objects := g.Charges()
	rec.SetCharge("tokens", int64(tokens))
	rec.SetCharge("nodes", int64(nodes))
	rec.SetCharge("objects", int64(objects))
}

// buildTrace assembles the decision trace from the discovery state. ranked
// and lists are nil on the cached-rule path, which skips discovery.
func buildTrace(res *Result, ranked []subtree.Ranked, lists []combine.RankedList, rec *obs.TraceRecorder) *obs.DecisionTrace {
	tr := &obs.DecisionTrace{
		TraceID:     rec.TraceID(),
		SubtreePath: res.SubtreePath,
		Separator:   res.Separator,
		Confidence:  res.Confidence(),
		Objects:     len(res.Objects),
		Charges:     rec.Charges(),
	}
	for i, r := range ranked {
		if i >= traceTopN {
			break
		}
		tr.SubtreeRanking = append(tr.SubtreeRanking, obs.RankedItem{
			Rank: i + 1, Key: tagtree.Path(r.Node), Score: r.Score,
		})
	}
	for _, list := range lists {
		rk := obs.Ranking{Name: list.Name}
		for i, r := range list.Ranked {
			if i >= traceTopN {
				break
			}
			rk.Items = append(rk.Items, obs.RankedItem{Rank: i + 1, Key: r.Tag, Score: r.Score})
		}
		tr.SeparatorRankings = append(tr.SeparatorRankings, rk)
	}
	for i, c := range res.Candidates {
		if i >= traceTopN {
			break
		}
		tr.Combined = append(tr.Combined, obs.RankedItem{Rank: i + 1, Key: c.Tag, Score: c.Prob})
	}
	tr.Phases = rec.Spans()
	return tr
}
