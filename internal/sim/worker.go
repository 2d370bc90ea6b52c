//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A worker is one coroutine that runs processes back to back. The engine
// hands it a process and calls next; the process runs until it parks
// (yield) or its body returns, and then the worker yields once more and
// waits for the engine's next process.
type worker struct {
	p     *Proc
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// workers is the process-wide free list. iter.Pull costs about a dozen
// allocations, so a worker outlives the environment that made it. It is
// not a sync.Pool: a suspended coroutine the pool dropped would be a
// goroutine leaked for good.
var workers struct {
	sync.Mutex
	free []*worker
}

// putWorkers returns ws to the free list. Only the engine calls it, after
// next has returned with each worker's process dead: a worker that freed
// itself before its final yield could be taken by a second engine while
// the first is still switching out of it.
func putWorkers(ws ...*worker) {
	workers.Lock()
	workers.free = append(workers.free, ws...)
	workers.Unlock()
}

// takeWorker returns a worker for a process of e: one a process of e freed
// while the loop runs, so environments running at once on different
// goroutines do not meet on the free list's lock at every spawn; else one
// off the free list; else a new one.
func (e *Env) takeWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return w
	}
	workers.Lock()
	defer workers.Unlock()
	if n := len(workers.free); n > 0 {
		w := workers.free[n-1]
		workers.free = workers.free[:n-1]
		return w
	}
	w := new(worker)
	w.next, _ = iter.Pull(w.loop)
	return w
}

// freeWorker releases the worker of a dead process of e. While e's loop
// runs, e keeps it for its next spawn; returnIdle hands it on when the
// loop returns.
func (e *Env) freeWorker(w *worker) {
	w.p = nil
	if e.running {
		e.idle = append(e.idle, w)
		return
	}
	putWorkers(w)
}

// returnIdle hands the workers e kept back to the free list. runUntil
// calls it whenever it returns, so no environment holds an idle worker
// once its loop is done — not even one nobody closes. The slice keeps its
// backing array: an environment that runs a short loop per request (a
// pcsinet server's) appends into it without allocating.
func (e *Env) returnIdle() {
	if len(e.idle) == 0 {
		return
	}
	putWorkers(e.idle...)
	e.idle = e.idle[:0]
}

// loop is the coroutine body. A panic other than ErrAborted leaves it
// (through Proc.exit), ends the coroutine and surfaces from next.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.main()
		yield(struct{}{})
	}
}

// dispatch hands p the CPU until it parks or exits, starting it on a
// worker first if it has none yet.
func (p *Proc) dispatch() {
	if p.w == nil {
		p.w = p.env.takeWorker()
		p.w.p = p
	}
	p.w.next()
	if p.dead {
		p.env.freeWorker(p.w)
	}
}
