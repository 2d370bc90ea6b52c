package sim

// Resource is a counting semaphore with FIFO admission, used to model
// contended capacity (CPU slots, disk queue depth, connection pools).
type Resource struct {
	env  *Env
	name string
	cap  int64
	used int64
	q    []*resWaiter

	// Contention statistics.
	waits     int64
	totalWait Duration
}

type resWaiter struct {
	p  *Proc
	n  int64
	at Time
}

// NewResource returns a resource with the given capacity.
func (e *Env) NewResource(name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: e, name: name, cap: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.cap }

// InUse returns the currently acquired amount.
func (r *Resource) InUse() int64 { return r.used }

// Queued returns the number of waiting acquirers.
func (r *Resource) Queued() int { return len(r.q) }

// Acquire takes n units, parking the process in FIFO order until they are
// available. n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.cap {
		panic("sim: acquire exceeds resource capacity")
	}
	if len(r.q) == 0 && r.used+n <= r.cap {
		r.used += n
		return
	}
	start := r.env.now
	r.q = append(r.q, &resWaiter{p: p, n: n, at: start})
	// admit reserves our units before waking us, so one park suffices.
	p.park()
	r.waits++
	r.totalWait += r.env.now.Sub(start)
}

// TryAcquire takes n units if immediately available and reports success.
func (r *Resource) TryAcquire(n int64) bool {
	if len(r.q) == 0 && r.used+n <= r.cap {
		r.used += n
		return true
	}
	return false
}

// Release returns n units and admits queued acquirers in FIFO order.
func (r *Resource) Release(n int64) {
	r.used -= n
	if r.used < 0 {
		panic("sim: resource over-released")
	}
	r.admit()
}

func (r *Resource) admit() {
	for len(r.q) > 0 {
		w := r.q[0]
		if r.used+w.n > r.cap {
			return
		}
		r.used += w.n
		r.q = r.q[1:]
		r.env.wakeNow(w.p)
	}
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

// Queue is an unbounded FIFO of items with blocking receive, modelling
// message queues and work channels inside the simulation.
type Queue[T any] struct {
	env     *Env
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends an item and wakes one waiting receiver. It never blocks.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: put on closed queue")
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.env.wakeNow(p)
	}
}

// Close marks the queue closed; blocked and future Gets return ok=false
// once drained.
func (q *Queue[T]) Close() {
	q.closed = true
	for _, p := range q.waiters {
		q.env.wakeNow(p)
	}
	q.waiters = nil
}

// Get removes and returns the head item, parking while the queue is empty.
// ok is false if the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			return v, false
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
