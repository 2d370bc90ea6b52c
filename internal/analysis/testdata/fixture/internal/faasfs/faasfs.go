// Package faasfs is a miniature stand-in for the transactional file
// system. Its legal dependency surface is the capability-checked core
// client plus the cross-cutting substrates — importing the store is a
// layering violation: every object a session touches goes through core's
// rights checks, never through raw store access.
package faasfs

import (
	"errors"

	"fixture/internal/core"
	"fixture/internal/fault"
	"fixture/internal/sim"
	"fixture/internal/store" // want: layering
)

// Mount is a placeholder transactional mount.
type Mount struct {
	cl *core.Client
}

// Attach keeps the imports used.
func Attach(cl *core.Client, st *store.Store) *Mount {
	_ = st.Get(0)
	return &Mount{cl: cl}
}

// Run is the only fault.Policy.Do call above core, store and object: it is
// what puts those three inside errclass's mint-site scope.
func (m *Mount) Run(p *fault.Policy, proc *sim.Proc, st *store.Store) error {
	return p.Do(proc, "faasfs.txn", func() error {
		_, err := st.Take(0)
		return err
	})
}

// retryable is a classifier (func(error) bool): listing store.ErrBusy here
// is what clears its errors.New initializer.
func retryable(err error) bool {
	return errors.Is(err, store.ErrBusy) || fault.Retryable(err)
}

var _ = retryable
