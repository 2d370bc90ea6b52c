package sim

import (
	"errors"
	"testing"
	"time"
)

// errBoom is an arbitrary failure for events to carry.
var errBoom = errors.New("sim test: boom")

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != Time(5*time.Millisecond) {
		t.Errorf("woke at %v, want 5ms", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestEventOrderingDeterministic(t *testing.T) {
	e := NewEnv(1)
	var order []int
	// Same timestamp: must fire in scheduling order.
	e.schedule(10, func() { order = append(order, 1) })
	e.schedule(10, func() { order = append(order, 2) })
	e.schedule(5, func() { order = append(order, 0) })
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterleavedProcesses(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2)
		trace = append(trace, "a2")
		p.Sleep(2)
		trace = append(trace, "a4")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(1)
		trace = append(trace, "b1")
		p.Sleep(2)
		trace = append(trace, "b3")
	})
	e.Run()
	want := []string{"a0", "b1", "a2", "b3", "a4"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv(1)
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Sleep(3)
		e.Go("child", func(c *Proc) {
			if c.Now() != 3 {
				t.Errorf("child started at %v, want 3", c.Now())
			}
			childRan = true
		})
		p.Sleep(1)
	})
	e.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestEventCompleteWakesWaiters(t *testing.T) {
	e := NewEnv(1)
	ev := e.NewEvent()
	var got any
	var at Time
	e.Go("waiter", func(p *Proc) {
		got, _ = p.Wait(ev)
		at = p.Now()
	})
	e.Go("completer", func(p *Proc) {
		p.Sleep(7)
		ev.Complete("hello")
	})
	e.Run()
	if got != "hello" {
		t.Errorf("Wait returned %v, want hello", got)
	}
	if at != 7 {
		t.Errorf("waiter resumed at %v, want 7", at)
	}
}

func TestEventDoubleCompleteIgnored(t *testing.T) {
	e := NewEnv(1)
	ev := e.NewEvent()
	ev.Complete(1)
	ev.Complete(2)
	ev.Fail(errBoom)
	v, err := ev.Value()
	if v != 1 || err != nil {
		t.Fatalf("Value() = %v, %v; want 1, nil", v, err)
	}
}

func TestWaitOnCompletedEventReturnsImmediately(t *testing.T) {
	e := NewEnv(1)
	ev := e.NewEvent()
	ev.Complete(42)
	e.Go("w", func(p *Proc) {
		v, err := p.Wait(ev)
		if v != 42 || err != nil {
			t.Errorf("Wait = %v, %v; want 42, nil", v, err)
		}
		if p.Now() != 0 {
			t.Errorf("Wait on done event advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

func TestWaitAny(t *testing.T) {
	e := NewEnv(1)
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	e.schedule(5, func() { b.Complete("b") })
	e.schedule(9, func() { a.Complete("a") })
	var idx int
	var v any
	e.Go("w", func(p *Proc) { idx, v, _ = p.WaitAny(a, b, c) })
	e.Run()
	if idx != 1 || v != "b" {
		t.Errorf("WaitAny = %d, %v; want 1, b", idx, v)
	}
}

func TestWaitAllCollectsFirstError(t *testing.T) {
	e := NewEnv(1)
	a, b := e.NewEvent(), e.NewEvent()
	e.schedule(1, func() { a.Fail(errBoom) })
	e.schedule(2, func() { b.Complete(nil) })
	var err error
	e.Go("w", func(p *Proc) { err = p.WaitAll(a, b) })
	e.Run()
	if err != errBoom {
		t.Errorf("WaitAll err = %v, want errBoom", err)
	}
}

func TestBarrier(t *testing.T) {
	e := NewEnv(1)
	bar := e.NewBarrier(3)
	var released Time = -1
	e.Go("waiter", func(p *Proc) {
		bar.Wait(p)
		released = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Duration(i)
		e.After(d, bar.Arrive)
	}
	e.Run()
	if released != 3 {
		t.Errorf("barrier released at %v, want 3", released)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	e.schedule(10, func() { fired = append(fired, 10) })
	e.schedule(20, func() { fired = append(fired, 20) })
	now := e.RunUntil(15)
	if now != 15 {
		t.Errorf("RunUntil returned %v, want 15", now)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Errorf("fired = %v, want [10]", fired)
	}
	e.Run()
	if len(fired) != 2 {
		t.Errorf("after Run, fired = %v, want both", fired)
	}
}

func TestShutdownAbortsParkedProcesses(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	reached := false
	e.Go("stuck", func(p *Proc) {
		p.Wait(never)  //nolint:errcheck
		reached = true // must not run
	})
	e.Run()
	if reached {
		t.Fatal("aborted process continued past Wait")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Run, want 0", e.LiveProcs())
	}
}

func TestResourceAdmitsFIFO(t *testing.T) {
	e := NewEnv(1)
	r := e.NewResource("cpu", 1)
	var order []string
	worker := func(name string, hold Duration) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(hold)
			r.Release(1)
		}
	}
	e.Go("a", worker("a", 10))
	e.Go("b", worker("b", 10))
	e.Go("c", worker("c", 10))
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCounting(t *testing.T) {
	e := NewEnv(1)
	r := e.NewResource("mem", 10)
	maxInUse := int64(0)
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p, 4)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(10)
			r.Release(4)
		})
	}
	e.Run()
	if maxInUse > 10 {
		t.Fatalf("resource oversubscribed: %d > 10", maxInUse)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d at end, want 0", r.InUse())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEnv(1)
	r := e.NewResource("x", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty resource failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full resource succeeded")
	}
	r.Release(2)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
}

func TestResourceAvgWait(t *testing.T) {
	e := NewEnv(1)
	r := e.NewResource("cpu", 1)
	e.Go("a", func(p *Proc) { r.Acquire(p, 1); p.Sleep(100); r.Release(1) })
	e.Go("b", func(p *Proc) { r.Acquire(p, 1); r.Release(1) })
	e.Run()
	if got := r.AvgWait(); got != 100 {
		t.Errorf("AvgWait = %v, want 100ns", got)
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	var got int
	var at Time
	e.Go("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok {
			t.Error("Get returned !ok")
		}
		got, at = v, p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(4)
		q.Put(41)
	})
	e.Run()
	if got != 41 || at != 4 {
		t.Errorf("got %d at %v, want 41 at 4", got, at)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	q.Close()
	var vals []int
	e.Go("c", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			vals = append(vals, v)
		}
	})
	e.Run()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("vals = %v, want [1 2]", vals)
	}
}

func TestQueueCloseWakesBlockedGetter(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[string](e)
	okAtEnd := true
	e.Go("c", func(p *Proc) { _, okAtEnd = q.Get(p) })
	e.After(5, q.Close)
	e.Run()
	if okAtEnd {
		t.Fatal("Get on closed queue returned ok=true")
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEnv(42).Rand().Int63()
	b := NewEnv(42).Rand().Int63()
	c := NewEnv(43).Rand().Int63()
	if a != b {
		t.Errorf("same seed produced different values: %d vs %d", a, b)
	}
	if a == c {
		t.Errorf("different seeds produced identical first value %d", a)
	}
}

func TestManyProcessesStress(t *testing.T) {
	e := NewEnv(7)
	const n = 500
	count := 0
	for i := 0; i < n; i++ {
		d := Duration(e.Rand().Intn(1000))
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			count++
			p.Sleep(d)
		})
	}
	e.Run()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestYieldRunsSameInstantEvents(t *testing.T) {
	e := NewEnv(1)
	var seq []string
	e.Go("a", func(p *Proc) {
		seq = append(seq, "a-before")
		p.Sleep(0) // yield: run what else is due at this instant
		seq = append(seq, "a-after")
	})
	e.Go("b", func(p *Proc) { seq = append(seq, "b") })
	e.Run()
	// b was spawned after a but a yielded, so b runs before a-after.
	want := []string{"a-before", "b", "a-after"}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestResourceUseHelper(t *testing.T) {
	e := NewEnv(1)
	r := e.NewResource("cpu", 2)
	ran := false
	e.Go("w", func(p *Proc) {
		r.Use(p, 2, func() {
			ran = true
			if r.InUse() != 2 {
				t.Errorf("InUse inside Use = %d", r.InUse())
			}
		})
		if r.InUse() != 0 {
			t.Errorf("InUse after Use = %d", r.InUse())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("Use body never ran")
	}
}

func TestAtInThePastClampsToNow(t *testing.T) {
	e := NewEnv(1)
	var firedAt Time = -1
	e.Go("driver", func(p *Proc) {
		p.Sleep(100)
		e.schedule(5, func() { firedAt = e.Now() }) // 5 < now: clamp
		p.Sleep(1)
	})
	e.Run()
	if firedAt != 100 {
		t.Errorf("past event fired at %v, want clamped to 100", firedAt)
	}
}

func TestOnCompleteAfterDoneRunsImmediately(t *testing.T) {
	e := NewEnv(1)
	ev := e.NewEvent()
	ev.Complete("x")
	ran := false
	ev.OnComplete(func(v any, err error) {
		if v != "x" || err != nil {
			t.Errorf("OnComplete got %v, %v", v, err)
		}
		ran = true
	})
	if !ran {
		t.Fatal("OnComplete on done event did not run")
	}
}

func TestEventFailPropagates(t *testing.T) {
	e := NewEnv(1)
	ev := e.NewEvent()
	e.schedule(3, func() { ev.Fail(errBoom) })
	var err error
	e.Go("w", func(p *Proc) { _, err = p.Wait(ev) })
	e.Run()
	if err != errBoom {
		t.Errorf("Wait err = %v, want failure", err)
	}
}

func TestWaitAnyAlreadyDone(t *testing.T) {
	e := NewEnv(1)
	a, b := e.NewEvent(), e.NewEvent()
	b.Complete("ready")
	e.Go("w", func(p *Proc) {
		i, v, err := p.WaitAny(a, b)
		if i != 1 || v != "ready" || err != nil {
			t.Errorf("WaitAny = %d, %v, %v", i, v, err)
		}
		if p.Now() != 0 {
			t.Error("WaitAny on done event advanced the clock")
		}
	})
	e.Run()
}

func TestProcName(t *testing.T) {
	e := NewEnv(1)
	e.Go("named-proc", func(p *Proc) {
		if p.Name() != "named-proc" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Env() != e {
			t.Error("Env mismatch")
		}
	})
	e.Run()
}

func TestGoAfterShutdownIsNoop(t *testing.T) {
	e := NewEnv(1)
	e.Go("first", func(p *Proc) {})
	e.Run()
	ran := false
	e.Go("late", func(p *Proc) { ran = true })
	e.Run()
	if ran {
		t.Error("process spawned after shutdown ran")
	}
}

func TestCloseAbortsWhatRunUntilLeft(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Proc) { p.Wait(never) }) //nolint:errcheck
	}
	e.RunUntil(10)
	if e.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d after RunUntil, want 3", e.LiveProcs())
	}
	idle := idleWorkers()
	e.Close()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Close, want 0", e.LiveProcs())
	}
	if got := idleWorkers(); got != idle+3 {
		t.Errorf("%d idle workers after Close, want %d: an aborted process kept its worker", got, idle+3)
	}
}

// Returned tells a body that returned from one Close aborted, and from
// one still parked.
func TestReturnedTellsReturnFromAbort(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	var done, stuck *Proc
	e.Go("done", func(p *Proc) { done = p })
	e.Go("stuck", func(p *Proc) { stuck = p; p.Wait(never) }) //nolint:errcheck
	e.RunUntil(10)
	if !done.Returned() || stuck.Returned() {
		t.Fatalf("after RunUntil: done.Returned = %v, stuck.Returned = %v; want true, false", done.Returned(), stuck.Returned())
	}
	e.Close()
	if stuck.Returned() {
		t.Error("a process aborted by Close reports that it returned")
	}
}

// idleWorkers reports how many workers are on the free list.
func idleWorkers() int {
	workers.Lock()
	defer workers.Unlock()
	return len(workers.free)
}

// pooled reports whether w is on the free list.
func pooled(w *worker) bool {
	workers.Lock()
	defer workers.Unlock()
	for _, f := range workers.free {
		if f == w {
			return true
		}
	}
	return false
}

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv(1)
	var w *worker
	e.Go("bad", func(p *Proc) {
		w = p.w
		p.Sleep(0)
		panic("boom")
	})
	func() {
		defer func() {
			msg, _ := recover().(string)
			if want := `sim: process "bad" panicked: boom`; msg != want {
				t.Errorf("Run panicked with %q, want %q", msg, want)
			}
		}()
		e.Run()
		t.Error("Run returned normally")
	}()
	if w == nil || pooled(w) {
		t.Fatal("the panicked process's worker went back to the pool")
	}

	f := NewEnv(2)
	ran := 0
	for i := 0; i < 3; i++ {
		f.Go("ok", func(p *Proc) {
			p.Sleep(time.Millisecond)
			ran++
		})
	}
	if end := f.Run(); ran != 3 || end != Time(time.Millisecond) || f.LiveProcs() != 0 {
		t.Errorf("fresh env after a panic: ran %d of 3, ended at %v, %d live", ran, end, f.LiveProcs())
	}
	if pooled(w) {
		t.Error("the panicked process's worker was reused")
	}
}

func parkOnce(p *Proc) { p.Sleep(0) }

// A worker outlives its environment, so after one warm-up a fresh
// environment spawns without starting coroutines: iter.Pull costs about a
// dozen allocations, and a pool per environment would pay them for every
// process live at once.
func TestSpawnAllocationsAcrossEnvs(t *testing.T) {
	const n = 1000
	spawn := func() {
		e := NewEnv(1)
		for i := 0; i < n; i++ {
			e.Go("p", parkOnce) // every process parks once, so all n hold a worker at once
		}
		e.Run()
	}
	spawn()
	// One allocation per spawn is the Proc; one more is allowed, which
	// also covers the environment and the event queue's growth.
	if got := testing.AllocsPerRun(3, spawn); got > 2*n {
		t.Errorf("a fresh env spawning %d procs made %.0f allocations, want ≤ %d", n, got, 2*n)
	}
}

// allocsInProc returns what op allocates per call in steady state,
// measured by testing.AllocsPerRun from inside a running process of e.
// AllocsPerRun's first, unmeasured call grows every backing array op
// touches, so a nonzero count is an allocation on every call.
func allocsInProc(e *Env, op func(p *Proc)) float64 {
	var n float64
	e.Go("measure", func(p *Proc) {
		n = testing.AllocsPerRun(100, func() { op(p) })
	})
	e.Run()
	return n
}

// The engine's per-event path allocates nothing: scheduling, the heap push
// and pop, park, wake and the dispatch loop. Only a spawn allocates (the
// Proc; TestSpawnAllocationsAcrossEnvs). A second process sleeps in
// lockstep, one nanosecond behind, so no wake is ever the lone next event:
// every Sleep measured here parks.
func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	var n float64
	stop, lone := false, 0
	e.Go("lockstep", func(p *Proc) {
		p.Sleep(1)
		for !stop {
			p.Sleep(time.Microsecond)
		}
	})
	e.Go("measure", func(p *Proc) {
		n = testing.AllocsPerRun(100, func() {
			if e.Pending() == 0 {
				lone++ // the lockstep wake is not queued: this Sleep would not park
			}
			p.Sleep(time.Microsecond)
		})
		stop = true
	})
	e.Run()
	if n != 0 {
		t.Errorf("Proc.Sleep (parked): %v allocations per call, want 0", n)
	}
	if lone != 0 {
		t.Errorf("%d of 101 measured sleeps had no lockstep wake queued before theirs", lone)
	}
	if got := e.Dispatched(); got != 2+101+102 {
		t.Errorf("Dispatched = %d, want 205 (two spawns, 101 measured wakes, 102 lockstep wakes)", got)
	}
}

// A lone sleeper's wake is the engine's next event, so Sleep takes it
// inline: no allocation and no switch, but still one dispatch per call.
func TestInlineSleepAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	n := allocsInProc(e, func(p *Proc) { p.Sleep(time.Microsecond) })
	if n != 0 {
		t.Errorf("Proc.Sleep (inline): %v allocations per call, want 0", n)
	}
	if e.Now() != Time(101*time.Microsecond) {
		t.Errorf("101 inline sleeps of 1µs moved the clock to %v, want 101µs", e.Now())
	}
	if e.Dispatched() != 1+101 {
		t.Errorf("Dispatched = %d, want 102 (the spawn and 101 inline wakes)", e.Dispatched())
	}
}

// Close aborts a process parked in Wait; a Sleep in its deferred func is
// cut short there — it parks, and the closing environment unwinds it —
// and the clock does not move.
func TestCloseCutsAbortedSleepShort(t *testing.T) {
	e := NewEnv(1)
	never := e.NewEvent()
	past := false
	var stuck *Proc
	e.Go("stuck", func(p *Proc) {
		stuck = p
		defer func() {
			p.Sleep(5)
			past = true // must not run
		}()
		p.Wait(never) //nolint:errcheck
	})
	end := e.Run()
	if past {
		t.Error("an aborted process's deferred Sleep returned")
	}
	if end != 0 || e.Now() != 0 {
		t.Errorf("Run returned %v and the clock reads %v, want 0 and 0", end, e.Now())
	}
	if stuck.Returned() || e.LiveProcs() != 0 {
		t.Errorf("Returned = %v, LiveProcs = %d; want false, 0", stuck.Returned(), e.LiveProcs())
	}
}

func TestAfterAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	fired := 0
	cb := func() { fired++ }
	n := allocsInProc(e, func(p *Proc) {
		e.After(time.Microsecond, cb)
		p.Sleep(2 * time.Microsecond) // the callback runs before Sleep returns
	})
	if n != 0 {
		t.Errorf("Env.After: %v allocations per call, want 0", n)
	}
	if fired != 101 {
		t.Errorf("callback ran %d times, want 101", fired)
	}
}

// newEvents preallocates the one-shot events an allocation test completes:
// AllocsPerRun(100, ...) calls its function 101 times.
func newEvents(e *Env) []*Event {
	evs := make([]*Event, 101)
	for i := range evs {
		evs[i] = e.NewEvent()
	}
	return evs
}

func TestEventCompletionToWaiterAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	evs := newEvents(e)
	woken := 0
	e.Go("waiter", func(p *Proc) {
		for _, ev := range evs {
			p.Wait(ev) //nolint:errcheck // completed with nil
			woken++
		}
	})
	i := 0
	n := allocsInProc(e, func(p *Proc) {
		evs[i].Complete(nil)
		i++
		p.Sleep(0) // the waiter resumes and parks on the next event
	})
	if n != 0 {
		t.Errorf("Event completion to a parked Wait: %v allocations per call, want 0", n)
	}
	if woken != len(evs) {
		t.Errorf("waiter woke %d times, want %d", woken, len(evs))
	}
}

func TestEventCompletionToCallbackAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	evs := newEvents(e)
	called := 0
	cb := func(any, error) { called++ }
	i := 0
	n := allocsInProc(e, func(*Proc) {
		evs[i].OnComplete(cb)
		evs[i].Complete(nil)
		i++
	})
	if n != 0 {
		t.Errorf("Event completion to OnComplete: %v allocations per call, want 0", n)
	}
	if called != len(evs) {
		t.Errorf("callback ran %d times, want %d", called, len(evs))
	}
}

// A queue that drains keeps its backing arrays, so steady-state Put/Get,
// with or without a parked receiver, allocates nothing.
func TestQueuePutGetAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	if n := allocsInProc(e, func(p *Proc) {
		q.Put(1)
		q.Get(p)
	}); n != 0 {
		t.Errorf("Queue Put then Get: %v allocations per call, want 0", n)
	}

	e = NewEnv(1)
	req, resp := NewQueue[int](e), NewQueue[int](e)
	e.Go("echo", func(p *Proc) {
		for {
			v, _ := req.Get(p)
			resp.Put(v)
		}
	})
	if n := allocsInProc(e, func(p *Proc) {
		req.Put(1)
		resp.Get(p) // parks until echo answers; echo parks on req again
	}); n != 0 {
		t.Errorf("Queue Put/Get to a parked receiver: %v allocations per call, want 0", n)
	}
}
