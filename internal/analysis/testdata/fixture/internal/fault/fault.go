// Package fault violates its own layering rule: the fault injector may
// import only internal/sim, internal/simnet, internal/cluster, and the
// stdlib — never another substrate like metrics.
package fault

import (
	"fmt"

	"fixture/internal/metrics" // want: layering
	"fixture/internal/sim"
)

// Injector is a placeholder injector carrying its environment.
type Injector struct {
	Env *sim.Env
	c   metrics.Counter
}

// Touch keeps the imports used.
func (in *Injector) Touch() { in.c.Inc() }

// Classified is implemented by errors carrying their own retry
// classification; the errclass analyzer resolves it by name.
type Classified interface {
	Retryable() bool
}

// classed is the comparable classified sentinel behind Fatal/Transient.
type classed struct {
	msg   string
	retry bool
}

func (e classed) Error() string   { return e.msg }
func (e classed) Retryable() bool { return e.retry }

// Fatal returns a non-retryable sentinel.
func Fatal(msg string) error { return classed{msg: msg} }

// Transient returns a retryable sentinel.
func Transient(msg string) error { return classed{msg: msg, retry: true} }

// Retryable is the stub substrate classifier.
func Retryable(err error) bool {
	if c, ok := err.(Classified); ok {
		return c.Retryable()
	}
	return false
}

// Fatalf returns a formatted non-retryable sentinel.
func Fatalf(format string, args ...any) error {
	return classed{msg: fmt.Sprintf(format, args...)}
}

// Policy is the retry-boundary stub: a package that calls Do roots the
// import closure errclass's mint-site rule covers.
type Policy struct{}

// Do runs fn under the (stub) retry loop.
func (p *Policy) Do(proc *sim.Proc, op string, fn func() error) error {
	_ = proc
	_ = op
	return fn()
}
