package sim

// Event is a one-shot completion that processes can wait on. It carries an
// arbitrary value or an error. Completing an already-completed event is a
// no-op, which makes race-to-complete patterns (timeouts, first-of) simple.
// The zero Event is ready to use, so one can live inside the value it
// signals for without an allocation of its own.
type Event struct {
	done bool
	val  any
	err  error
	// The overwhelmingly common shapes are one waiter and zero or one
	// callbacks, so the first of each lives in an inline slot and the
	// slices only materialize for fan-in events. Wake and callback order
	// is still registration order: slot first, then the slice.
	waiter0   *Proc
	waiters   []*Proc
	callback0 func(any, error)
	callbacks []func(any, error)
}

// NewEvent returns an incomplete event.
func (e *Env) NewEvent() *Event { return new(Event) }

// Done reports whether the event has completed.
func (ev *Event) Done() bool { return ev.done }

// Value returns the completion value and error; only meaningful once Done.
func (ev *Event) Value() (any, error) { return ev.val, ev.err }

// Complete finishes the event successfully with value v. Waiters resume at
// the current virtual time. Subsequent completions are ignored.
func (ev *Event) Complete(v any) { ev.finish(v, nil) }

// Reset re-arms a completed event, so a caller that is done with one can
// use it again instead of allocating another. Nothing may still wait on it
// or expect its old result.
func (ev *Event) Reset() { ev.done, ev.val, ev.err = false, nil, nil }

// Fail finishes the event with an error.
func (ev *Event) Fail(err error) { ev.finish(nil, err) }

func (ev *Event) finish(v any, err error) {
	if ev.done {
		return
	}
	ev.done = true
	ev.val = v
	ev.err = err
	if p := ev.waiter0; p != nil {
		p.env.wakeNow(p)
		ev.waiter0 = nil
	}
	for _, p := range ev.waiters {
		p.env.wakeNow(p)
	}
	ev.waiters = nil
	if cb := ev.callback0; cb != nil {
		ev.callback0 = nil
		cb(v, err)
	}
	for _, cb := range ev.callbacks {
		cb(v, err)
	}
	ev.callbacks = nil
}

// OnComplete registers fn to run (in engine context) when the event
// completes; if it already has, fn runs immediately.
func (ev *Event) OnComplete(fn func(v any, err error)) {
	if ev.done {
		fn(ev.val, ev.err)
		return
	}
	if ev.callback0 == nil && len(ev.callbacks) == 0 {
		ev.callback0 = fn
		return
	}
	ev.callbacks = append(ev.callbacks, fn)
}

// Wait parks the process until the event completes and returns its result.
func (p *Proc) Wait(ev *Event) (any, error) {
	for !ev.done {
		if ev.waiter0 == nil && len(ev.waiters) == 0 {
			ev.waiter0 = p
		} else {
			ev.waiters = append(ev.waiters, p)
		}
		p.park()
	}
	return ev.val, ev.err
}

// WaitAny waits until at least one event completes and returns its index
// and result.
func (p *Proc) WaitAny(evs ...*Event) (int, any, error) {
	for i, ev := range evs {
		if ev.Done() {
			v, err := ev.Value()
			return i, v, err
		}
	}
	type res struct {
		i   int
		v   any
		err error
	}
	first := p.env.NewEvent()
	for i, ev := range evs {
		i := i
		ev.OnComplete(func(v any, err error) { first.Complete(res{i, v, err}) })
	}
	v, _ := p.Wait(first)
	r := v.(res)
	return r.i, r.v, r.err
}

// Barrier completes once n arrivals have been recorded.
type Barrier struct {
	ev   *Event
	need int
}

// NewBarrier returns a barrier expecting n arrivals.
func (e *Env) NewBarrier(n int) *Barrier { return &Barrier{ev: e.NewEvent(), need: n} }

// Arrive records one arrival; the n-th arrival releases all waiters.
func (b *Barrier) Arrive() {
	b.need--
	if b.need <= 0 {
		b.ev.Complete(nil)
	}
}

// Wait parks until the barrier releases.
func (b *Barrier) Wait(p *Proc) { p.Wait(b.ev) } //nolint:errcheck // barrier never fails
