// Package sim provides a sequential discrete-event simulation engine.
//
// The engine advances a virtual clock through a queue of timestamped events.
// Simulated activities are written as ordinary Go functions ("processes")
// that run as coroutines and execute strictly one at a time: the engine
// switches to a process, which runs until it parks (Sleep, Wait, Acquire,
// ...) and switches back, and only then does the engine dispatch the next
// event. This gives deterministic, race-free simulations with natural
// sequential code. A process runs on a pooled worker coroutine (worker.go),
// so a spawn costs no goroutine and a switch no trip through the scheduler.
//
// Virtual time is completely decoupled from wall-clock time: a Sleep of ten
// simulated minutes costs only one event dispatch.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the simulation epoch.
type Time int64

// Duration re-exports time.Duration; all simulated delays use it.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since the epoch.
func (t Time) String() string { return Duration(t).String() }

// ErrAborted is delivered (via panic, recovered by the engine) to processes
// that are still parked when the environment shuts down, and returned from
// waits that are abandoned. Processes normally never observe it.
var ErrAborted = errors.New("sim: environment shut down")

// event is a scheduled wake-up. Events with equal times fire in scheduling
// order (seq breaks ties), which keeps runs deterministic. The common cases
// — resuming a parked process and starting a fresh one — name the process
// rather than capture it in a closure, so the per-event allocation is just
// the heap slot itself (amortized by the backing array); fn is only
// non-nil for At/After callbacks.
type event struct {
	t    Time
	seq  uint64
	proc *Proc  // non-nil: start or resume this process
	fn   func() // engine-context callback; nil when proc is set
}

// eventHeap is a binary min-heap of events ordered by (t, seq), stored by
// value. The sift loops are hand-rolled copies of container/heap's up/down
// — identical comparison order, so the pop sequence is bit-identical to
// the previous heap.Interface implementation — but monomorphic: no
// interface dispatch per comparison and no boxing per push/pop on the
// engine's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the fn/proc references in the dead slot
	q = q[:n]
	*h = q
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return ev
}

func (h eventHeap) peek() *event { return &h[0] }

// Env is a simulation environment: a virtual clock plus an event queue.
// It is not safe for concurrent use from goroutines outside the engine's
// own process discipline.
type Env struct {
	now        Time
	queue      eventHeap
	seq        uint64
	dispatched uint64 // events popped and run, for benchmarking
	procs      int    // live processes
	// Parked processes form an intrusive doubly-linked list in park order
	// (head = oldest), so parking and unparking are O(1) and Close still
	// aborts deterministically oldest-first.
	parkedHead *Proc
	parkedTail *Proc
	closed     bool
	running    bool
	limit      Time // the running RunUntil's limit; negative under Run
	seed       int64
	forks      uint64
	rng        *rand.Rand
	observers  []observer // SetObserver's slots; opaque to the engine
	idle       []*worker  // workers freed while the loop runs (worker.go)
}

type observer struct{ key, val any }

// NewEnv returns a fresh environment whose clock reads zero. The seed fixes
// the environment's random stream; equal seeds give identical runs.
func NewEnv(seed int64) *Env {
	return &Env{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's shared deterministic random stream.
// Components whose draws must not depend on what else runs in the
// environment should hold their own stream from ForkRand instead.
func (e *Env) Rand() *rand.Rand { return e.rng }

// ForkRand returns a fresh deterministic random stream derived from the
// environment seed, the label, and a per-environment fork counter. Forked
// streams are independent of the shared Rand stream and of each other, so a
// component drawing from its own fork sees the same sequence regardless of
// draw interleaving elsewhere — only the seed and the order of ForkRand
// calls matter.
func (e *Env) ForkRand(label string) *rand.Rand {
	e.forks++
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%d", e.seed, label, e.forks)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// ObserverRand returns a deterministic random stream derived from the
// environment seed and the label only. Unlike ForkRand it does not advance
// the fork counter, so observers (tracers, probes) that may or may not be
// attached draw from it without perturbing any component's ForkRand stream:
// a run behaves identically whether or not it is being observed.
func (e *Env) ObserverRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00observer\x00%s", e.seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// SetObserver attaches v under key, so cross-cutting instrumentation
// (tracer, fault injector, telemetry plane) finds its per-environment state
// without globals. Each package keys its slot with a constant of a private
// type, and sets it once: a key keeps its first value.
func (e *Env) SetObserver(key, v any) { e.observers = append(e.observers, observer{key, v}) }

// Observer returns the first value SetObserver attached under key, or nil.
func (e *Env) Observer(key any) any {
	for _, o := range e.observers {
		if o.key == key {
			return o.val
		}
	}
	return nil
}

// schedule enqueues fn to run at time t (>= now).
func (e *Env) schedule(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.queue.push(event{t: t, seq: e.seq, fn: fn})
	e.seq++
}

// scheduleProc enqueues a process start or resume at time t (>= now).
// Unlike schedule it captures nothing: the event names the process
// directly, so the engine's hottest operations — Sleep, wake, spawn — cost
// zero closure allocations.
func (e *Env) scheduleProc(t Time, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.queue.push(event{t: t, seq: e.seq, proc: p})
	e.seq++
}

// After schedules fn to run in engine context d from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Proc is the handle a process uses to interact with virtual time.
type Proc struct {
	env     *Env
	name    string
	fn      func(p *Proc) // the process body, run by main on first dispatch
	w       *worker       // the coroutine running the body; nil before start
	dead    bool
	aborted bool // Close unwound the body: it did not return
	span    any  // current-span context, maintained by instrumentation

	// Intrusive links in the environment's parked list; nil when running.
	parkedPrev *Proc
	parkedNext *Proc
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// SpanCtx returns the process's current-span context (opaque to the engine;
// the trace package stores its innermost open span here), or nil.
func (p *Proc) SpanCtx() any { return p.span }

// SetSpanCtx replaces the process's current-span context.
func (p *Proc) SetSpanCtx(v any) { p.span = v }

// Returned reports whether the process body has returned, as opposed to
// still running or parked, or having been aborted by Close.
func (p *Proc) Returned() bool { return p.dead && !p.aborted }

// Go spawns a process. The function starts at the current virtual time but
// is dispatched through the event queue, so a caller inside another process
// keeps running until it parks. Safe to call both before Run and from
// within running processes or event callbacks.
func (e *Env) Go(name string, fn func(p *Proc)) {
	if e.closed {
		return
	}
	e.procs++
	e.scheduleProc(e.now, &Proc{env: e, name: name, fn: fn})
}

// main runs the process body on its worker, then tears down in exit. Both
// are methods rather than closures so a spawn allocates nothing beyond the
// Proc.
func (p *Proc) main() {
	defer p.exit()
	p.fn(p)
}

// exit marks the process dead. It is the deferred frame of main, so
// recover here intercepts the ErrAborted panic that Close delivers to
// parked processes; any other panic leaves the worker and reaches the
// engine's caller.
func (p *Proc) exit() {
	e := p.env
	p.dead = true
	e.procs--
	if r := recover(); r != nil {
		if r != ErrAborted {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
		p.aborted = true
	}
}

// park suspends the calling process until the engine resumes it.
func (p *Proc) park() {
	e := p.env
	p.parkedPrev = e.parkedTail
	if e.parkedTail != nil {
		e.parkedTail.parkedNext = p
	} else {
		e.parkedHead = p
	}
	e.parkedTail = p
	p.w.yield(struct{}{}) // back to the engine until it dispatches p again
	if p.parkedPrev != nil {
		p.parkedPrev.parkedNext = p.parkedNext
	} else {
		e.parkedHead = p.parkedNext
	}
	if p.parkedNext != nil {
		p.parkedNext.parkedPrev = p.parkedPrev
	} else {
		e.parkedTail = p.parkedPrev
	}
	p.parkedPrev, p.parkedNext = nil, nil
	if e.closed {
		panic(ErrAborted)
	}
}

// wake schedules the parked process p to resume at time t.
func (e *Env) wake(p *Proc, t Time) {
	e.scheduleProc(t, p)
}

// wakeNow schedules p to resume at the current time.
func (e *Env) wakeNow(p *Proc) { e.wake(p, e.now) }

// Sleep suspends the process for d of virtual time. When its wake is the
// event the engine would dispatch next — nothing is queued before or at
// the wake time, the running RunUntil's limit admits it, and the
// environment is not closing — the process takes that dispatch itself:
// it consumes the wake's sequence number, advances the clock and counts
// the dispatch, exactly as the engine's pop would, without switching out.
// Every other Sleep parks until the engine resumes it.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	t := e.now.Add(d)
	if !e.closed && (e.limit < 0 || t <= e.limit) && (len(e.queue) == 0 || e.queue.peek().t > t) {
		e.seq++
		e.now = t
		e.dispatched++
		return
	}
	e.wake(p, t)
	p.park()
}

// Run drains the event queue, advancing the clock, and returns the final
// time. After the queue drains, any processes still parked (waiting on
// events that will never complete) are aborted.
func (e *Env) Run() Time { return e.runUntil(-1) }

// RunUntil runs events up to and including time t, then stops without
// aborting parked processes; Run or RunUntil may be called again.
func (e *Env) RunUntil(t Time) Time { return e.runUntil(t) }

// runUntil is the dispatch loop: pop the earliest event, advance the
// clock, and run it. Process events (the common case) switch to the
// process directly; only At/After events call through fn.
func (e *Env) runUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.limit = limit
	defer e.stopRunning()
	for len(e.queue) > 0 {
		if limit >= 0 && e.queue.peek().t > limit {
			e.now = limit
			return e.now
		}
		ev := e.queue.pop()
		e.now = ev.t
		e.dispatched++
		if ev.proc != nil {
			ev.proc.dispatch()
		} else {
			ev.fn()
		}
	}
	if limit < 0 {
		e.Close()
	} else if limit > e.now {
		e.now = limit
	}
	return e.now
}

// stopRunning ends the loop and hands back the workers it kept, also when
// a process's panic unwinds the loop.
func (e *Env) stopRunning() {
	e.running = false
	e.returnIdle()
}

// Close aborts every parked process, oldest park first, and spawns no more:
// each resumed process removes itself from the parked list (in park) and
// unwinds with ErrAborted, freeing its worker. Run closes the environment
// when its queue drains; call Close once done with an environment that
// RunUntil stopped. It must not be called while the environment runs.
func (e *Env) Close() {
	e.closed = true
	for e.parkedHead != nil {
		e.parkedHead.dispatch()
	}
}

// Pending reports the number of events waiting in the queue.
func (e *Env) Pending() int { return len(e.queue) }

// Dispatched reports the total number of events run since the environment
// was created: those popped from the queue, and the wakes a Sleep took
// inline because the engine would have popped them next. The engine
// benchmark divides wall-clock time and allocation counts by it.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// LiveProcs reports the number of processes that have started and not yet
// exited (including parked ones).
func (e *Env) LiveProcs() int { return e.procs }
