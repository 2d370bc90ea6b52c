// Package taskgraph exercises errclass's mint-site rule: it calls
// fault.Policy.Do, so it is a retry boundary and every unclassified error
// born in it (or in anything it imports) is flagged at the construction
// site. The classified paths at the bottom must stay quiet.
package taskgraph

import (
	"errors"
	"fmt"

	"fixture/internal/fault"
	"fixture/internal/sim"
)

// ErrStuck is classified by construction: reads of it stay clean.
var ErrStuck = fault.Transient("taskgraph: stuck")

// Run drives one step under the retry policy: the call that makes this
// package a retry boundary.
func Run(p *fault.Policy, proc *sim.Proc) error {
	return p.Do(proc, "taskgraph.step", func() error {
		return step()
	})
}

// step returns unclassified errors three ways; each origin is flagged
// where the error is born, not at the boundary.
func step() error {
	if cond(1) {
		return errors.New("taskgraph: raw") // want: errclass
	}
	if cond(2) {
		return fmt.Errorf("taskgraph: code %d", 7) // want: errclass
	}
	return &opError{code: 9} // want: errclass
}

// opError implements error with no classification: errclass flags the
// declaration (here) and every literal of it (above).
type opError struct{ code int } // want: errclass

func (e *opError) Error() string { return "taskgraph: op" }

// retry forwards op and fn through its parameters; the mint-site rule
// needs no resolution, the closure below is in this package either way.
func retry(p *fault.Policy, proc *sim.Proc, op string, fn func() error) error {
	return p.Do(proc, op, fn)
}

// Flaky reaches the boundary through retry's parameter forwarding.
func Flaky(p *fault.Policy, proc *sim.Proc) error {
	return retry(p, proc, "taskgraph.flaky", func() error {
		return errors.New("taskgraph: flaky") // want: errclass
	})
}

// RunSafe wraps the classified sentinel with %w: the chain preserves the
// classification, so no diagnostic.
func RunSafe(p *fault.Policy, proc *sim.Proc) error {
	return p.Do(proc, "taskgraph.safe", func() error {
		return fmt.Errorf("taskgraph: wrapped: %w", ErrStuck)
	})
}

// shed classifies itself through fault.Classified.
type shed struct{ n int }

func (s *shed) Error() string   { return "taskgraph: shed" }
func (s *shed) Retryable() bool { return false }

// newShed's literal is of a type that implements Classified: clean.
func newShed() *shed { return &shed{n: 1} }

// RunShed returns only classified values: clean.
func RunShed(p *fault.Policy, proc *sim.Proc) error {
	return p.Do(proc, "taskgraph.shed", func() error {
		return newShed()
	})
}

// cond keeps the branches above alive without constant folding.
func cond(n int) bool { return n > 1 }
