package sim

// WaitAll waits for every event and returns the first error seen, if any.
func (p *Proc) WaitAll(evs ...*Event) error {
	var first error
	for _, ev := range evs {
		if _, err := p.Wait(ev); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TryAcquire takes n units if immediately available and reports success.
func (r *Resource) TryAcquire(n int64) bool {
	if len(r.q) == 0 && r.used+n <= r.cap {
		r.used += n
		return true
	}
	return false
}

// AvgWait returns the mean queueing delay across all completed acquisitions
// that had to wait.
func (r *Resource) AvgWait() Duration {
	if r.waits == 0 {
		return 0
	}
	return r.totalWait / Duration(r.waits)
}

// Use acquires n units, runs fn, and releases them.
func (r *Resource) Use(p *Proc, n int64, fn func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	fn()
}
