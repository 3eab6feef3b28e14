package govern

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	for _, err := range []error{
		g.Input(1 << 30), g.Tokens(1 << 30), g.Nodes(1 << 30),
		g.Depth(1 << 30), g.Objects(1 << 30), g.Poll(), g.Check(),
	} {
		if err != nil {
			t.Fatalf("nil guard returned %v", err)
		}
	}
}

func TestBudgets(t *testing.T) {
	lim := Limits{MaxInputBytes: 10, MaxTokens: 5, MaxNodes: 4, MaxTreeDepth: 3, MaxObjects: 2}
	cases := []struct {
		kind   string
		charge func(g *Guard) error
	}{
		{KindInput, func(g *Guard) error { return g.Input(11) }},
		{KindTokens, func(g *Guard) error {
			var err error
			for i := 0; i < 6 && err == nil; i++ {
				err = g.Tokens(1)
			}
			return err
		}},
		{KindNodes, func(g *Guard) error { return g.Nodes(5) }},
		{KindDepth, func(g *Guard) error { return g.Depth(4) }},
		{KindObjects, func(g *Guard) error { return g.Objects(3) }},
	}
	for _, c := range cases {
		g := NewGuard(context.Background(), lim)
		err := c.charge(g)
		var lerr *ErrLimitExceeded
		if !errors.As(err, &lerr) {
			t.Fatalf("%s: got %v, want ErrLimitExceeded", c.kind, err)
		}
		if lerr.Kind != c.kind {
			t.Fatalf("kind = %q, want %q", lerr.Kind, c.kind)
		}
		if lerr.Actual <= lerr.Limit {
			t.Fatalf("%s: Actual %d not past Limit %d", c.kind, lerr.Actual, lerr.Limit)
		}
	}
}

func TestUnderBudgetPasses(t *testing.T) {
	g := NewGuard(context.Background(), Limits{MaxTokens: 100, MaxTreeDepth: 10})
	for i := 0; i < 100; i++ {
		if err := g.Tokens(1); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
	}
	if err := g.Depth(10); err != nil {
		t.Fatalf("depth at limit: %v", err)
	}
}

func TestDepthIsThresholdNotCumulative(t *testing.T) {
	g := NewGuard(context.Background(), Limits{MaxTreeDepth: 5})
	for i := 0; i < 1000; i++ {
		if err := g.Depth(3); err != nil {
			t.Fatalf("repeated shallow depth check failed: %v", err)
		}
	}
}

func TestDisabledLimits(t *testing.T) {
	g := NewGuard(context.Background(), Unlimited())
	if err := g.Input(1 << 30); err != nil {
		t.Fatalf("unlimited input: %v", err)
	}
	if err := g.Tokens(10 << 20); err != nil {
		t.Fatalf("unlimited tokens: %v", err)
	}
	if err := g.Depth(1 << 20); err != nil {
		t.Fatalf("unlimited depth: %v", err)
	}
}

func TestPollSeesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGuard(ctx, Limits{})
	cancel()
	var err error
	for i := 0; i < 2*pollEvery && err == nil; i++ {
		err = g.Poll()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("poll after cancel: got %v, want context.Canceled", err)
	}
}

func TestCheckMapsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := NewGuard(ctx, Limits{}).Check()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrDeadline should wrap context.DeadlineExceeded, got %v", err)
	}
}

func TestCheckPassesCancellationRaw(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := NewGuard(ctx, Limits{}).Check()
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want bare context.Canceled", err)
	}
}

func TestWithDefaults(t *testing.T) {
	l := Limits{MaxTokens: -1, MaxTreeDepth: 100}.WithDefaults()
	d := Default()
	if l.MaxTokens != -1 {
		t.Fatalf("negative field overwritten: %d", l.MaxTokens)
	}
	if l.MaxTreeDepth != 100 {
		t.Fatalf("explicit field overwritten: %d", l.MaxTreeDepth)
	}
	if l.MaxInputBytes != d.MaxInputBytes || l.Deadline != d.Deadline {
		t.Fatalf("zero fields not defaulted: %+v", l)
	}
}

func TestNodesLeft(t *testing.T) {
	var nilGuard *Guard
	if got := nilGuard.NodesLeft(); got != -1 {
		t.Errorf("nil guard: NodesLeft = %d, want -1", got)
	}
	if got := NewGuard(context.Background(), Unlimited()).NodesLeft(); got != -1 {
		t.Errorf("unlimited: NodesLeft = %d, want -1", got)
	}
	g := NewGuard(context.Background(), Limits{MaxNodes: 4})
	for _, step := range []struct{ charge, left int }{{0, 4}, {1, 3}, {3, 0}, {2, 0}} {
		g.Nodes(step.charge)
		if got := g.NodesLeft(); got != step.left {
			t.Fatalf("after charging %d: NodesLeft = %d, want %d", step.charge, got, step.left)
		}
	}
}

// TestGuardOwnsPageDeadline: Limits.Deadline runs from NewGuard, with
// no context deadline behind it. Its expiry fails the next poll as a
// context deadline does — ErrDeadline wrapping DeadlineExceeded — and
// a cancelled context still surfaces raw even once the page deadline
// has passed. A guard without a deadline never expires.
func TestGuardOwnsPageDeadline(t *testing.T) {
	g := NewGuard(context.Background(), Limits{Deadline: time.Millisecond})
	if err := g.Check(); err != nil {
		t.Fatalf("fresh guard: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	var err error
	for i := 0; i < 2*pollEvery && err == nil; i++ {
		err = g.Poll()
	}
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("poll past the page deadline: got %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	g = NewGuard(ctx, Limits{Deadline: time.Nanosecond})
	cancel()
	time.Sleep(time.Millisecond)
	if err := g.Check(); !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled past the page deadline: got %v, want bare context.Canceled", err)
	}

	for _, lim := range []Limits{{}, Unlimited()} {
		if err := NewGuard(context.Background(), lim).Check(); err != nil {
			t.Errorf("no page deadline (%v): %v", lim.Deadline, err)
		}
	}
}
