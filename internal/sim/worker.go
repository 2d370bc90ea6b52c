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

// getWorker takes a worker off the free list, or starts a new one.
func getWorker() *worker {
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

// putWorker returns w to the free list. Only the engine calls it, after
// next has returned with w's process dead: a worker that freed itself
// before its final yield could be taken by a second engine while the
// first is still switching out of it.
func putWorker(w *worker) {
	w.p = nil
	workers.Lock()
	workers.free = append(workers.free, w)
	workers.Unlock()
}

// IdleWorkers reports how many pooled workers wait for a process. Each is a
// suspended goroutine, so a leak check subtracts it from
// runtime.NumGoroutine.
func IdleWorkers() int {
	workers.Lock()
	defer workers.Unlock()
	return len(workers.free)
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
//
//pcsi:hotpath
func (p *Proc) dispatch() {
	if p.w == nil {
		p.w = getWorker()
		p.w.p = p
	}
	p.w.next()
	if p.dead {
		putWorker(p.w)
	}
}
