package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fncache"
	"repro/internal/media"
	"repro/internal/namespace"
	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/taskgraph"
)

// TestReclassifiedErrorsKeepTheirAnswer pins the errors errclass's mint-site
// rule turned from errors.New / fmt.Errorf into fault.Fatal / fault.Fatalf:
// each Error() string is the literal it had before, and both classifiers
// still answer "do not retry" — which is what unclassified already meant.
func TestReclassifiedErrorsKeepTheirAnswer(t *testing.T) {
	st := store.New(media.DRAM, 0)
	dup := object.New(7, object.Regular)
	if err := st.Insert(dup); err != nil {
		t.Fatal(err)
	}
	_, unaligned := taskgraph.Pipeline([]string{"a"}, nil)
	_, early := taskgraph.NewExecutor(nil).Submit(nil, &taskgraph.Task{})
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
		{unaligned, "taskgraph: names and fns must align"},
		{early, "taskgraph: Submit before Execute"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("error = %v, want %q", c.err, c.want)
			continue
		}
		if fault.Retryable(c.err) || DefaultRetryable(c.err) {
			t.Errorf("%q is now retryable; it was not before", c.want)
		}
	}
}
