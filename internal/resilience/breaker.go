package resilience

import (
	"errors"
	"sync"
	"time"

	"omini/internal/obs"
)

// ErrOpen is returned (wrapped) by callers when a circuit breaker rejects
// work because its host is considered down.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerState is the classic three-state circuit-breaker state machine.
type BreakerState int

const (
	// StateClosed lets all requests through (the healthy state).
	StateClosed BreakerState = iota
	// StateOpen rejects all requests until the cooldown elapses.
	StateOpen
	// StateHalfOpen lets a single probe request through; its outcome
	// decides between closing and reopening.
	StateHalfOpen
)

// String names the state for logs and counters.
func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker state-transition counters. Every transition of every breaker
// increments exactly one of these, so an operator can read flapping
// (open and closed both climbing) versus a stuck outage (open climbing
// alone) straight off /metricsz.
const (
	SeriesBreakerOpen     = "resilience.breaker_open"
	SeriesBreakerHalfOpen = "resilience.breaker_half_open"
	SeriesBreakerClosed   = "resilience.breaker_closed"
)

var (
	breakerOpen     = obs.NewCounter(SeriesBreakerOpen, "Breaker transitions into the open state (a trip, from closed or from a failed half-open probe).")
	breakerHalfOpen = obs.NewCounter(SeriesBreakerHalfOpen, "Breaker cooldown expiries admitting a probe.")
	breakerClosed   = obs.NewCounter(SeriesBreakerClosed, "Breaker recoveries: a success observed while the breaker was open or half-open.")
	shortCircuits   = obs.NewCounter("breaker.short_circuit", "Requests a breaker rejected without trying them (open, or half-open with its probe out).")
)

// BreakerConfig tunes a Breaker. The zero value selects the defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive transient failures
	// that trips the breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects requests before
	// allowing a half-open probe (default 10s).
	Cooldown time.Duration
	// Clock overrides time.Now in tests.
	Clock func() time.Time
	// Stats receives the breaker's transition and short-circuit
	// counters; nil uses Default.
	Stats *Stats
}

const (
	defaultFailureThreshold = 5
	defaultCooldown         = 10 * time.Second
)

// Breaker is a circuit breaker for one upstream (typically one host).
// Callers ask Allow before attempting work and report the outcome with
// Success or Failure; only transient failures should be reported as
// failures — a host answering 404s is up.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive transient failures while closed
	until    time.Time // when an open breaker may half-open
	probing  bool      // a half-open probe is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = defaultFailureThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = defaultCooldown
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Stats == nil {
		cfg.Stats = Default
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a request may proceed. In the half-open state only
// one probe is admitted at a time; everyone else is rejected until the
// probe reports back.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Clock().Before(b.until) {
			shortCircuits.Add(b.cfg.Stats, 1)
			return false
		}
		b.state = StateHalfOpen
		b.probing = true
		breakerHalfOpen.Add(b.cfg.Stats, 1)
		return true
	case StateHalfOpen:
		if b.probing {
			shortCircuits.Add(b.cfg.Stats, 1)
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success reports a successful request: the breaker closes and the failure
// streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateClosed {
		breakerClosed.Add(b.cfg.Stats, 1)
	}
	b.state = StateClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a transient failure. A failed half-open probe reopens the
// breaker immediately; enough consecutive failures while closed trip it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateHalfOpen:
		b.trip()
	case StateClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.failures = 0
	b.probing = false
	b.until = b.cfg.Clock().Add(b.cfg.Cooldown)
	breakerOpen.Add(b.cfg.Stats, 1)
}

// State returns the current state (resolving an expired cooldown lazily is
// Allow's job; State reports the stored state).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerGroup hands out one Breaker per key (per host, for the fetcher) on
// demand. Safe for concurrent use.
type BreakerGroup struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerGroup returns a group whose breakers share cfg.
func NewBreakerGroup(cfg BreakerConfig) *BreakerGroup {
	return &BreakerGroup{cfg: cfg, m: make(map[string]*Breaker)}
}

// For returns the key's breaker, creating it on first use.
func (g *BreakerGroup) For(key string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.m[key]
	if b == nil {
		b = NewBreaker(g.cfg)
		g.m[key] = b
	}
	return b
}
