package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func fastPolicy(attempts int) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Stats:       NewStats(),
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	p := fastPolicy(5)
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if got := p.Stats.Get("retry.retries"); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	p := fastPolicy(3)
	calls := 0
	sentinel := errors.New("still down")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	p := fastPolicy(5)
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Errorf("not found")
	})
	if err == nil || !IsPermanent(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry of permanent failure)", calls)
	}
}

func TestRetryRespectsContextCancel(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, Stats: NewStats()}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Do(ctx, func(context.Context) error {
		calls++
		return errors.New("transient")
	})
	if err == nil {
		t.Fatal("Do succeeded after cancel")
	}
	if time.Since(start) > time.Second {
		t.Errorf("Do ran %v after cancel", time.Since(start))
	}
}

func TestRetryAttemptTimeout(t *testing.T) {
	p := &RetryPolicy{
		MaxAttempts:    2,
		BaseDelay:      time.Millisecond,
		AttemptTimeout: 5 * time.Millisecond,
		Stats:          NewStats(),
	}
	deadlines := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			deadlines++
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if deadlines != 2 {
		t.Errorf("attempts with deadline = %d, want 2", deadlines)
	}
}

func TestIsPermanentSeesThroughWrapping(t *testing.T) {
	err := Permanent(errors.New("inner"))
	wrapped := errors.Join(errors.New("outer"), err)
	if !IsPermanent(wrapped) {
		t.Error("wrapped permanent error not detected")
	}
	if IsPermanent(errors.New("plain")) {
		t.Error("plain error reported permanent")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestBackoffBounds(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for n := 1; n < 30; n++ {
		d := p.backoff(n)
		if d < 50*time.Millisecond || d > time.Second {
			t.Fatalf("backoff(%d) = %v out of [50ms, 1s]", n, d)
		}
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         10 * time.Second,
		Clock:            clock,
		Stats:            NewStats(),
	})

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Failure()
	}
	if b.State() != StateOpen {
		t.Fatalf("state = %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request before cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe succeeds: breaker closes.
	b.Success()
	if b.State() != StateClosed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected request after recovery")
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Second,
		Clock:            func() time.Time { return now },
		Stats:            NewStats(),
	})
	b.Failure()
	if b.State() != StateOpen {
		t.Fatal("breaker did not trip")
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed a request")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Stats: NewStats()})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != StateClosed {
		t.Error("non-consecutive failures tripped the breaker")
	}
}

func TestBreakerGroupIsPerKey(t *testing.T) {
	g := NewBreakerGroup(BreakerConfig{FailureThreshold: 1, Stats: NewStats()})
	g.For("down.example").Failure()
	if g.For("down.example").State() != StateOpen {
		t.Error("down host breaker not open")
	}
	if g.For("up.example").State() != StateClosed {
		t.Error("unrelated host breaker tripped")
	}
	if g.For("down.example") != g.For("down.example") {
		t.Error("group did not reuse the breaker")
	}
}

func TestLimiterShedsPastCap(t *testing.T) {
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter rejected within capacity")
	}
	if l.TryAcquire() {
		t.Fatal("limiter admitted past capacity")
	}
	if l.InFlight() != 2 || l.Cap() != 2 {
		t.Errorf("InFlight=%d Cap=%d, want 2/2", l.InFlight(), l.Cap())
	}
	l.Release()
	if !l.TryAcquire() {
		t.Error("limiter rejected after release")
	}
}

func TestNilLimiterIsUnlimited(t *testing.T) {
	l := NewLimiter(0)
	for i := 0; i < 100; i++ {
		if !l.TryAcquire() {
			t.Fatal("nil limiter rejected")
		}
	}
	l.Release()
	if l.InFlight() != 0 || l.Cap() != 0 {
		t.Error("nil limiter reported non-zero gauges")
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	p := &RetryPolicy{MaxAttempts: 1, Stats: s}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = p.Do(context.Background(), func(context.Context) error { return nil })
			}
		}()
	}
	wg.Wait()
	if got := s.Get("retry.attempts"); got != 8000 {
		t.Errorf("retry.attempts = %d, want 8000", got)
	}
	if got := s.Get("retry.retries"); got != 0 {
		t.Errorf("retry.retries = %d, want 0", got)
	}
}
