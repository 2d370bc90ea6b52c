// Package faas is a miniature stand-in for the compute layer. Importing the
// cross-cutting tracer is legal from any layer, so no diagnostic for that —
// but faas is a retry-boundary package, so the errclass analyzer audits
// every error it declares.
package faas

import (
	"errors"

	"fixture/internal/fault"
	"fixture/internal/fncache"
	"fixture/internal/trace"
)

// Classified constructions pass: the initializer is fault.Fatal/Transient.
var (
	ErrFatalOK     = fault.Fatal("faas: fatal ok")
	ErrTransientOK = fault.Transient("faas: transient ok")
)

// ErrListed is flagged although DefaultRetryable below mentions it: a
// classifier's errors.Is table classifies nothing, only the value does.
var ErrListed = errors.New("faas: listed in a classifier") // want: errclass

// ErrOops carries no classification anywhere: flagged.
var ErrOops = errors.New("faas: unclassified") // want: errclass

// ShedError classifies itself through fault.Classified: passes.
type ShedError struct{ N int }

func (e *ShedError) Error() string   { return "faas: shed" }
func (e *ShedError) Retryable() bool { return false }

// PlainError implements error but carries no classification: flagged.
type PlainError struct{ Code int } // want: errclass

func (e *PlainError) Error() string { return "faas: plain" }

// DefaultRetryable is a classifier (func(error) bool); mentioning ErrListed
// here does not clear it above.
func DefaultRetryable(err error) bool {
	if errors.Is(err, ErrListed) {
		return true
	}
	return fault.Retryable(err)
}

// Invoke is a placeholder compute entry point. Colocating the function
// cache is legal from the compute layer — no diagnostic for the fncache
// import.
func Invoke(name string, c *fncache.Cache) string {
	var s trace.Span
	s.Touch()
	if c != nil {
		c.Hits.Inc()
	}
	return name
}
