// Package resilience supplies the fault-tolerance primitives the serving
// path is built on: a retry policy with exponential backoff and jitter, a
// per-host circuit breaker, a concurrency limiter for load shedding, the
// tree's one bounded HTTP body reader (Call for peer requests, ReadBody
// for inbound ones), and a counter registry that makes all of it
// observable. The package knows nothing of extraction, and of HTTP only
// how to read a body within a limit — callers (internal/fetch,
// internal/serve, internal/cluster, internal/ruledist) decide which
// failures are transient and which are final.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"omini/internal/obs"
)

// RetryPolicy retries an operation with capped exponential backoff and
// half-jitter. The zero value is usable and selects the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 100ms);
	// each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt; 0 leaves attempts
	// governed only by the caller's context.
	AttemptTimeout time.Duration
	// Stats receives the retry.attempts and retry.retries counters;
	// nil uses Default.
	Stats *Stats
}

var (
	retryAttempts = obs.NewCounter("retry.attempts", "Attempts made under retry policies, first tries included.")
	retryRetries  = obs.NewCounter("retry.retries", "Attempts after the first, each after a backoff.")
)

const (
	defaultMaxAttempts = 3
	defaultBaseDelay   = 100 * time.Millisecond
	defaultMaxDelay    = 2 * time.Second
)

// Do runs op until it succeeds, returns a permanent error (see Permanent),
// the attempts are exhausted, or ctx is cancelled. Each attempt receives a
// context bounded by AttemptTimeout when one is set. The error of the last
// attempt is returned unwrapped so callers can inspect it with errors.Is.
func (p *RetryPolicy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = defaultMaxAttempts
	}
	stats := p.Stats
	if stats == nil {
		stats = Default
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			retryRetries.Add(stats, 1)
			if werr := sleepCtx(ctx, p.backoff(i)); werr != nil {
				return err // cancelled mid-backoff: report the last attempt
			}
		}
		retryAttempts.Add(stats, 1)
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err = op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		if IsPermanent(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// backoff returns the jittered delay before retry number n (n >= 1):
// uniformly within [d/2, d) where d doubles per retry up to MaxDelay.
func (p *RetryPolicy) backoff(n int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = defaultBaseDelay
	}
	max := p.MaxDelay
	if max <= 0 {
		max = defaultMaxDelay
	}
	d := base << uint(n-1)
	if d <= 0 || d > max { // <= 0 guards shift overflow
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so RetryPolicy.Do stops immediately instead of
// retrying — for failures that further attempts cannot fix (a 404, a
// malformed URL, an open circuit).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Errorf is fmt.Errorf followed by Permanent — a convenience for callers
// building non-retryable failures.
func Errorf(format string, args ...any) error {
	return Permanent(fmt.Errorf(format, args...))
}
