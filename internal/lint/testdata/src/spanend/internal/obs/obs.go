// Package obs is a minimal stand-in for the real tracing registry so
// the fixture packages type-check inside their own module. spanend
// matches the package name and function names, not the import path.
package obs

import "context"

type Span struct{}

func (s *Span) End() {}

func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

func StartLeaf(ctx context.Context, name string) Span {
	return Span{}
}
