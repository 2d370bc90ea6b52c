package sim

// Resource is a counting semaphore with FIFO admission, used to model
// contended capacity (CPU slots, disk queue depth, connection pools).
type Resource struct {
	env  *Env
	cap  int64
	used int64
	q    []resWaiter // by value: a parked acquirer allocates nothing

	// Contention statistics.
	waits     int64
	totalWait Duration
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a resource with the given capacity.
func (e *Env) NewResource(capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: e, cap: capacity}
}

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
	r.q = append(r.q, resWaiter{p: p, n: n})
	// admit reserves our units before waking us, so one park suffices.
	p.park()
	r.waits++
	r.totalWait += r.env.now.Sub(start)
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
		popFront(&r.q)
		r.env.wakeNow(w.p)
	}
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

// Put appends an item and wakes one waiting receiver. It never blocks.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: put on closed queue")
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		q.env.wakeNow(popFront(&q.waiters))
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
	return popFront(&q.items), true
}

// popFront removes and returns the head of a FIFO slice. It zeroes the
// vacated slot, so the slice keeps no reference to what it handed out, and
// a slice it empties keeps its backing array, so a FIFO that drains and
// refills does not allocate.
func popFront[T any](s *[]T) T {
	q := *s
	v := q[0]
	var zero T
	q[0] = zero
	if len(q) == 1 {
		*s = q[:0]
	} else {
		*s = q[1:]
	}
	return v
}
