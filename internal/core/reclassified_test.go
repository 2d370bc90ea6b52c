package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/media"
	"repro/internal/namespace"
	"repro/internal/object"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/taskgraph"
)

// TestReclassifiedErrorsKeepTheirAnswer pins the errors errclass's mint-site
// rule turned from errors.New / fmt.Errorf into fault.Fatal / fault.Fatalf:
// each Error() string is the literal it had before, and the classifier
// still answers "do not retry" — which is what unclassified already meant.
func TestReclassifiedErrorsKeepTheirAnswer(t *testing.T) {
	st := store.New(media.DRAM)
	dup := object.New(7, object.Regular)
	if err := st.Insert(dup); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{namespace.ErrNotDir, "namespace: not a directory"},
		{namespace.ErrNotFound, "namespace: no such path"},
		{namespace.ErrBadPath, "namespace: malformed path"},
		{namespace.ErrReadOnly, "namespace: read-only layer"},
		{namespace.ErrDepthLimit, "namespace: path too deep"},
		{fncache.ErrNotLattice, "fncache: payload is not an encoded lattice"},
		{st.Insert(dup), "store: duplicate id obj-7"},
		{taskgraph.NewGraph().Add(&taskgraph.Task{}), "taskgraph: task needs a name and function"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error = %v, want %q", c.err, c.want)
			continue
		}
		if fault.Retryable(c.err) {
			t.Errorf("%q is now retryable; it was not before", c.want)
		}
	}
}

// TestTransientsClassifyThemselves pins the sentinels that say "retry me"
// through their own value: bare or wrapped, fault.Retryable answers true
// and a policy with no Retryable hook re-runs the attempt. Answers stay
// fatal and run once.
func TestTransientsClassifyThemselves(t *testing.T) {
	attempts := func(err error) int {
		env := sim.NewEnv(1)
		p := fault.DefaultPolicy().Bind(env)
		n := 0
		env.Go("retry", func(proc *sim.Proc) {
			p.Do(proc, "op", func() error { n++; return err }) //nolint:errcheck
		})
		env.Run()
		return n
	}
	for _, c := range []struct {
		err   error
		retry bool
	}{
		{fault.ErrInjected, true},
		{fault.ErrInjectedTimeout, true},
		{consistency.ErrUnavailable, true},
		{faas.ErrNoPlacement, true},
		{cluster.ErrNodeDown, true},
		{cluster.ErrNoCapacity, true},
		{qos.ErrOverload, false},
		{faas.ErrUnknownFunction, false},
		{ErrNoSuchFn, false},
	} {
		for _, err := range []error{c.err, fmt.Errorf("ctx: %w", c.err)} {
			if got := fault.Retryable(err); got != c.retry {
				t.Errorf("fault.Retryable(%q) = %v, want %v", err, got, c.retry)
			}
			if n := attempts(err); (n > 1) != c.retry {
				t.Errorf("policy ran %q %d times, retryable = %v", err, n, c.retry)
			}
		}
	}
}
