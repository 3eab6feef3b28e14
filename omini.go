package omini

import (
	"context"

	"omini/internal/combine"
	"omini/internal/core"
	"omini/internal/extract"
	"omini/internal/govern"
	"omini/internal/nav"
	"omini/internal/rules"
	"omini/internal/separator"
	"omini/internal/subtree"
	"omini/internal/tagtree"
	"omini/internal/wrapgen"
)

// Object is one extracted data object.
type Object = extract.Object

// Rule is a learned per-site extraction rule (object-rich subtree path plus
// separator tag) that can be cached and replayed.
type Rule = rules.Rule

// RuleStore is a concurrency-safe collection of rules with JSON
// persistence.
type RuleStore = rules.Store

// NewRuleStore returns an empty rule store.
func NewRuleStore() *RuleStore { return rules.NewStore() }

// LoadRules reads a rule store previously written with (*RuleStore).Save.
func LoadRules(path string) (*RuleStore, error) { return rules.Load(path) }

// Result is the full outcome of one extraction: the objects, the discovered
// subtree path and separator tag, and the combined candidate ranking.
// Per-phase timings land in the context's obs registry as phase spans.
type Result = core.Result

// Errors surfaced by extraction; see the core package for details.
var (
	ErrNoObjects    = core.ErrNoObjects
	ErrRuleMismatch = core.ErrRuleMismatch
	// ErrDeadline marks a page that exceeded its wall-clock budget
	// (Limits.Deadline). It wraps context.DeadlineExceeded.
	ErrDeadline = govern.ErrDeadline
)

// ErrLimitExceeded reports a blown resource budget (input bytes,
// tokens, tree nodes, tree depth, or objects). Match with errors.As:
//
//	var lim *omini.ErrLimitExceeded
//	if errors.As(err, &lim) { ... lim.Kind ... }
type ErrLimitExceeded = govern.ErrLimitExceeded

// Limits bounds the resources one extraction may consume. Zero fields
// take DefaultLimits(); negative fields disable that limit.
type Limits = core.Limits

// DefaultLimits returns the production resource budgets every
// Extractor enforces unless overridden with WithLimits.
func DefaultLimits() Limits { return core.DefaultLimits() }

// UnlimitedLimits disables every resource budget — the pre-governor
// behavior, for trusted input and benchmarking.
func UnlimitedLimits() Limits { return govern.Unlimited() }

// WithLimits sets the extraction resource governor: hard budgets on
// input size, token count, tree size and depth, and object count, plus
// a per-page deadline. Violations surface as *ErrLimitExceeded or
// ErrDeadline.
func WithLimits(l Limits) Option {
	return optionFunc(func(o *core.Options) { o.Limits = l })
}

// Extract runs the full Omini pipeline with default options on an HTML page
// and returns the refined objects.
func Extract(html string) ([]Object, error) {
	res, err := NewExtractor().ExtractResult(html)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// Extractor runs the Omini pipeline. The zero-argument constructor uses the
// paper's defaults (compound subtree heuristic, RSIPB separator
// combination, refinement on); options customize each stage.
type Extractor struct {
	inner *core.Extractor
}

// Option configures an Extractor.
type Option interface {
	apply(*core.Options)
}

type optionFunc func(*core.Options)

func (f optionFunc) apply(o *core.Options) { f(o) }

// WithoutRefinement disables the Phase-3 refinement step, returning every
// candidate object construction produces.
func WithoutRefinement() Option {
	return optionFunc(func(o *core.Options) { o.SkipRefine = true })
}

// WithSubtreeHeuristic selects the object-rich subtree heuristic by name:
// "HF", "GSI", "LTC" or "Compound" (the default). Unknown names keep the
// default.
func WithSubtreeHeuristic(name string) Option {
	return optionFunc(func(o *core.Options) {
		switch name {
		case "HF":
			o.Subtree = subtree.HF()
		case "GSI":
			o.Subtree = subtree.GSI()
		case "LTC":
			o.Subtree = subtree.LTC()
		case "Compound":
			o.Subtree = subtree.Compound()
		}
	})
}

// WithSeparatorHeuristics selects the separator heuristics to combine, by
// name ("SD", "RP", "IPS", "PP", "SB", plus the BYU baselines "HC" and
// "IT"). Unknown names are ignored; an empty selection keeps the default
// RSIPB combination.
func WithSeparatorHeuristics(names ...string) Option {
	return optionFunc(func(o *core.Options) {
		var hs []separator.Heuristic
		for _, name := range names {
			if h := separator.ByName(name); h != nil {
				hs = append(hs, h)
			}
		}
		if len(hs) > 0 {
			o.Separators = hs
		}
	})
}

// NewExtractor returns an Extractor configured by opts.
func NewExtractor(opts ...Option) *Extractor {
	var o core.Options
	for _, opt := range opts {
		opt.apply(&o)
	}
	return &Extractor{inner: core.New(o)}
}

// ExtractResult runs full discovery on an HTML page.
func (e *Extractor) ExtractResult(html string) (*Result, error) {
	return e.inner.Extract(html)
}

// ExtractResultContext is ExtractResult under a caller context. Pipeline
// phase timings land in the context's metrics registry
// (obs.WithRegistry), and when the context carries a trace recorder
// (obs.WithTraceRecorder) the result's Trace records every decision the
// pipeline made — subtree rankings, per-heuristic separator votes, the
// combined probabilities, and per-phase costs.
func (e *Extractor) ExtractResultContext(ctx context.Context, html string) (*Result, error) {
	return e.inner.ExtractContext(ctx, html)
}

// Objects runs full discovery and returns just the refined objects.
func (e *Extractor) Objects(html string) ([]Object, error) {
	res, err := e.inner.Extract(html)
	if err != nil {
		return nil, err
	}
	return res.Objects, nil
}

// Learn runs full discovery and returns both the result and a rule for the
// named site that replays the discovered subtree path and separator.
func (e *Extractor) Learn(site, html string) (*Result, Rule, error) {
	res, err := e.inner.Extract(html)
	if err != nil {
		return nil, Rule{}, err
	}
	return res, res.Rule(site), nil
}

// ExtractWithRule replays a cached rule on a page, skipping subtree and
// separator discovery — the order-of-magnitude-faster path of the paper's
// Table 17. It returns ErrRuleMismatch when the page no longer matches the
// rule (fall back to ExtractResult and re-learn).
func (e *Extractor) ExtractWithRule(html string, rule Rule) (*Result, error) {
	return e.inner.ExtractWithRule(html, rule)
}

// ExtractWithRuleContext is ExtractWithRule under a caller context, with
// the same metrics and trace behavior as ExtractResultContext.
func (e *Extractor) ExtractWithRuleContext(ctx context.Context, html string, rule Rule) (*Result, error) {
	return e.inner.ExtractWithRuleContext(ctx, html, rule)
}

// SeparatorProbability exposes the paper's rank-probability table (Table
// 10/20) used as combination evidence, for callers that want to inspect or
// rescale it.
func SeparatorProbability() map[string][]float64 {
	return combine.PaperProbs()
}

// RenderTree parses a page and renders its tag tree as indented ASCII, in
// the style of the paper's Figures 1 and 5 — a debugging aid for
// understanding why a page extracts the way it does.
func RenderTree(html string, maxDepth int) (string, error) {
	root, err := tagtree.Parse(html)
	if err != nil {
		return "", err
	}
	return tagtree.Render(root, tagtree.RenderOptions{
		MaxDepth:    maxDepth,
		ShowMetrics: true,
	}), nil
}

// Wrapper is a learned per-site record extractor: an extraction rule plus
// a field schema projecting each object into named fields — the automated
// wrapper generation the paper proposes building on Omini (Section 7).
type Wrapper = wrapgen.Wrapper

// Record is one structured object extracted by a Wrapper.
type Record = wrapgen.Record

// WrapperField is one field of a wrapper's record schema.
type WrapperField = wrapgen.Field

// LearnWrapper builds a wrapper for the site from a training page: the
// full pipeline discovers the objects, and their shared structure becomes
// the record schema ("title", "url", "image", plus path-named fields).
func LearnWrapper(site, html string) (*Wrapper, error) {
	return wrapgen.Learn(site, html)
}

// FindNextPage locates the page's next-result-page link (rel="next",
// next-flavored anchor text, or a numbered pagination bar) so callers can
// crawl a full result set. ok is false when the page offers none.
func FindNextPage(html string) (href string, ok bool) {
	root, err := tagtree.Parse(html)
	if err != nil {
		return "", false
	}
	return nav.FindNext(root)
}

// Select parses the page and returns the visible text of every node
// matching the CSS-flavored selector (tag names, ".class", "#id",
// "[attr]", "[attr=v]", ":nth(n)", descendant and ">" child combinators).
func Select(html, selector string) ([]string, error) {
	root, err := tagtree.Parse(html)
	if err != nil {
		return nil, err
	}
	nodes, err := tagtree.Select(root, selector)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.InnerText()
	}
	return out, nil
}

// SelectAttr parses the page and returns the named attribute of every node
// matching the selector; nodes without the attribute contribute "".
func SelectAttr(html, selector, attr string) ([]string, error) {
	root, err := tagtree.Parse(html)
	if err != nil {
		return nil, err
	}
	nodes, err := tagtree.Select(root, selector)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		for _, a := range n.Attrs {
			if a.Name == attr {
				out[i] = a.Value
				break
			}
		}
	}
	return out, nil
}
