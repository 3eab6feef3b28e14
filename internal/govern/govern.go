// Package govern is the pipeline's resource governor: hard budgets on
// input size, token count, tree size/depth, and object count, plus a
// per-page deadline, enforced cooperatively inside every phase loop.
//
// The paper's motivating deployment (Omini §1, §6) feeds arbitrary —
// and occasionally adversarial — web pages through the extractor at
// scale. A single pathological page (100k-deep nesting, a multi-MB
// text node, an unclosed-tag avalanche) must not stall or OOM a
// worker. The governor makes every phase loop interruptible: each
// phase threads a *Guard through its hot loop and charges the work it
// does; when a budget is exceeded the phase returns a typed
// ErrLimitExceeded, and when the page's context expires it returns
// ErrDeadline (or the raw cancellation error). Both wrap cleanly, so
// callers dispatch with errors.As / errors.Is.
//
// The package is a leaf: it imports only the standard library and is
// imported by every pipeline package, so it carries no Omini types.
package govern

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Limits bounds the resources a single extraction may consume. The
// zero value of each field means "use the default" at the core layer;
// a negative value disables that limit. Limits are cheap to copy.
type Limits struct {
	// MaxInputBytes caps the raw HTML size accepted by the pipeline.
	MaxInputBytes int
	// MaxTokens caps the number of tokens the lexer and the tidy
	// normalizer may produce. Tidy repairs (format-tag reopening,
	// implied end tags) emit tokens too, so a repair loop that blows
	// up quadratically trips this budget even on small inputs.
	MaxTokens int
	// MaxNodes caps the number of tag-tree nodes built.
	MaxNodes int
	// MaxTreeDepth caps the open-element nesting depth, enforced in
	// tidy and again in the tree builder. Keeping the bound well
	// under the recursion the later phases can absorb is what makes
	// a 100k-deep page fail typed instead of overflowing the stack.
	MaxTreeDepth int
	// MaxObjects caps the number of objects constructed in Phase 3.
	MaxObjects int
	// Deadline is the per-page wall-clock budget. The core layer
	// derives a context.WithTimeout from it; the guard surfaces the
	// expiry as ErrDeadline.
	Deadline time.Duration
}

// Default returns the production limits: generous enough that any
// plausible real page sails through (the governor must be free on
// well-formed input), tight enough that the pathological corpus fails
// fast. MaxTreeDepth 4096 admits the deepest trees seen in the wild
// by two orders of magnitude while staying far below the nesting that
// threatens the goroutine stack in the recursive analysis phases.
func Default() Limits {
	return Limits{
		MaxInputBytes: 16 << 20, // 16 MiB of HTML
		MaxTokens:     4 << 20,  // 4M tokens
		MaxNodes:      2 << 20,  // 2M tree nodes
		MaxTreeDepth:  4096,     // open-element nesting
		MaxObjects:    1 << 16,  // 65536 extracted objects
		Deadline:      10 * time.Second,
	}
}

// Unlimited returns Limits with every budget disabled. Benchmarks and
// the ungoverned half of the chaos experiment use it.
func Unlimited() Limits {
	return Limits{
		MaxInputBytes: -1,
		MaxTokens:     -1,
		MaxNodes:      -1,
		MaxTreeDepth:  -1,
		MaxObjects:    -1,
		Deadline:      -1,
	}
}

// WithDefaults returns l with every zero field replaced by the
// corresponding Default value. Negative fields stay negative
// (disabled).
func (l Limits) WithDefaults() Limits {
	d := Default()
	if l.MaxInputBytes == 0 {
		l.MaxInputBytes = d.MaxInputBytes
	}
	if l.MaxTokens == 0 {
		l.MaxTokens = d.MaxTokens
	}
	if l.MaxNodes == 0 {
		l.MaxNodes = d.MaxNodes
	}
	if l.MaxTreeDepth == 0 {
		l.MaxTreeDepth = d.MaxTreeDepth
	}
	if l.MaxObjects == 0 {
		l.MaxObjects = d.MaxObjects
	}
	if l.Deadline == 0 {
		l.Deadline = d.Deadline
	}
	return l
}

// Limit kinds, carried in ErrLimitExceeded.Kind and used as the
// {kind="..."} label on the obs counters.
const (
	KindInput   = "input"
	KindTokens  = "tokens"
	KindNodes   = "nodes"
	KindDepth   = "depth"
	KindObjects = "objects"
)

// ErrLimitExceeded reports a blown resource budget. It is returned by
// pointer and matched with errors.As:
//
//	var lim *govern.ErrLimitExceeded
//	if errors.As(err, &lim) { ... lim.Kind ... }
type ErrLimitExceeded struct {
	Kind   string // one of the Kind* constants
	Limit  int    // the configured budget
	Actual int    // the observed value that tripped it
}

func (e *ErrLimitExceeded) Error() string {
	return fmt.Sprintf("govern: %s limit exceeded (limit %d, got %d)", e.Kind, e.Limit, e.Actual)
}

// ErrDeadline marks a page that ran out of wall-clock budget. It
// wraps the underlying context.DeadlineExceeded, so both
// errors.Is(err, govern.ErrDeadline) and
// errors.Is(err, context.DeadlineExceeded) hold.
var ErrDeadline = errors.New("govern: page deadline exceeded")

// Guard enforces Limits for one extraction. It is single-goroutine
// state — each page gets its own — and all methods are safe on a nil
// receiver (no-ops returning nil), so ungoverned call paths pay one
// nil check and nothing else.
type Guard struct {
	ctx context.Context
	lim Limits

	tokens  int
	nodes   int
	objects int
	ops     int // since the last context poll
}

// pollEvery is how many charged operations pass between context
// polls. 1024 keeps the per-iteration cost to an increment and a
// compare while bounding cancellation latency to ~a microsecond of
// work on any realistic page.
const pollEvery = 1024

// NewGuard returns a Guard enforcing lim for work done under ctx.
// The caller owns deriving the deadline context from Limits.Deadline.
func NewGuard(ctx context.Context, lim Limits) *Guard {
	return &Guard{ctx: ctx, lim: lim}
}

// Input checks the raw input size n against MaxInputBytes.
func (g *Guard) Input(n int) error {
	if g == nil {
		return nil
	}
	if g.lim.MaxInputBytes > 0 && n > g.lim.MaxInputBytes {
		return &ErrLimitExceeded{Kind: KindInput, Limit: g.lim.MaxInputBytes, Actual: n}
	}
	return nil
}

// Tokens charges n produced tokens against MaxTokens and polls the
// context.
func (g *Guard) Tokens(n int) error {
	if g == nil {
		return nil
	}
	g.tokens += n
	if g.lim.MaxTokens > 0 && g.tokens > g.lim.MaxTokens {
		return &ErrLimitExceeded{Kind: KindTokens, Limit: g.lim.MaxTokens, Actual: g.tokens}
	}
	return g.step(n)
}

// Nodes charges n built tree nodes against MaxNodes and polls the
// context.
func (g *Guard) Nodes(n int) error {
	if g == nil {
		return nil
	}
	g.nodes += n
	if g.lim.MaxNodes > 0 && g.nodes > g.lim.MaxNodes {
		return &ErrLimitExceeded{Kind: KindNodes, Limit: g.lim.MaxNodes, Actual: g.nodes}
	}
	return g.step(n)
}

// NodesLeft returns how many more nodes Nodes admits before it fails,
// or -1 when the node budget is unlimited. The tree builder caps what
// it pre-allocates with it.
func (g *Guard) NodesLeft() int {
	if g == nil || g.lim.MaxNodes <= 0 {
		return -1
	}
	return max(g.lim.MaxNodes-g.nodes, 0)
}

// Depth checks the current nesting depth d against MaxTreeDepth.
// Unlike the charge methods it is a pure threshold: depth rises and
// falls with the open-element stack.
func (g *Guard) Depth(d int) error {
	if g == nil {
		return nil
	}
	if g.lim.MaxTreeDepth > 0 && d > g.lim.MaxTreeDepth {
		return &ErrLimitExceeded{Kind: KindDepth, Limit: g.lim.MaxTreeDepth, Actual: d}
	}
	return nil
}

// Objects charges n constructed objects against MaxObjects.
func (g *Guard) Objects(n int) error {
	if g == nil {
		return nil
	}
	g.objects += n
	if g.lim.MaxObjects > 0 && g.objects > g.lim.MaxObjects {
		return &ErrLimitExceeded{Kind: KindObjects, Limit: g.lim.MaxObjects, Actual: g.objects}
	}
	return g.step(n)
}

// Charges reports the work charged so far: produced tokens, built
// tree nodes, constructed objects. Trace recording reads it to stamp
// governor consumption onto a request's trace.
func (g *Guard) Charges() (tokens, nodes, objects int) {
	if g == nil {
		return 0, 0, 0
	}
	return g.tokens, g.nodes, g.objects
}

// Poll charges one unit of un-budgeted work (a visited node, a
// scanned candidate) and checks the context every pollEvery charges.
// This is the hook the analysis phases — subtree ranking, separator
// stats, object construction — thread through their loops.
func (g *Guard) Poll() error {
	if g == nil {
		return nil
	}
	return g.step(1)
}

// step advances the op counter by n and polls the context when it
// crosses the poll interval.
func (g *Guard) step(n int) error {
	g.ops += n
	if g.ops < pollEvery {
		return nil
	}
	g.ops = 0
	return g.Check()
}

// Check polls the context immediately, mapping expiry to ErrDeadline
// so callers can tell "the page ran out of time" from "the batch was
// cancelled": cancellation surfaces as the raw context error.
func (g *Guard) Check() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %w", ErrDeadline, err)
		}
		return err
	}
	return nil
}
