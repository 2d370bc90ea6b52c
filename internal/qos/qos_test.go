package qos

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	//pcsi:allow layering tests need a real cluster, whose constructor takes a network; simnet never reaches non-test qos code
	"repro/internal/simnet"
)

// one controller with a single invoke-class limit, no cluster derivation
// and no registry.
func testController(env *sim.Env, cc ClassConfig) *Controller {
	return New(env, nil, Config{Invoke: cc}, nil)
}

func TestNilControllerIsInert(t *testing.T) {
	env := sim.NewEnv(1)
	var q *Controller
	done := false
	env.Go("op", func(p *sim.Proc) {
		g, err := q.Admit(p, ClassInvoke)
		if err != nil {
			t.Errorf("nil controller Admit err = %v", err)
		}
		g.Release()
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("proc did not run")
	}
	if q.Enabled(ClassInvoke) {
		t.Error("nil controller reports enabled")
	}
	q.OnShed(func(label, reason string) {})
	if q.ClassStats(ClassInvoke) != (Stats{}) {
		t.Error("nil controller has stats")
	}
}

func TestDisabledClassPassesThrough(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 1})
	if q.Enabled(ClassData) {
		t.Fatal("data class should be disabled")
	}
	env.Go("op", func(p *sim.Proc) {
		g, err := q.Admit(p, ClassData)
		if err != nil {
			t.Errorf("disabled class Admit err = %v", err)
		}
		g.Release()
	})
	env.Run()
}

func TestConcurrencyLimitEnforced(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 2})
	var peak, cur int
	for i := 0; i < 6; i++ {
		env.Go("op", func(p *sim.Proc) {
			g, err := q.Admit(p, ClassInvoke)
			if err != nil {
				t.Errorf("Admit: %v", err)
				return
			}
			cur++
			if cur > peak {
				peak = cur
			}
			p.Sleep(time.Millisecond)
			cur--
			g.Release()
		})
	}
	env.Run()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	st := q.ClassStats(ClassInvoke)
	if st.Admitted != 6 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 6 admitted, 0 shed", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 1, MaxQueue: 2})
	var admitted, shed int
	for i := 0; i < 6; i++ {
		env.Go("op", func(p *sim.Proc) {
			g, err := q.Admit(p, ClassInvoke)
			if err != nil {
				if !errors.Is(err, ErrOverload) {
					t.Errorf("shed error %v does not match ErrOverload", err)
				}
				shed++
				return
			}
			admitted++
			p.Sleep(time.Millisecond)
			g.Release()
		})
	}
	env.Run()
	// 1 in flight + 2 queued; the remaining 3 shed at arrival.
	if admitted != 3 || shed != 3 {
		t.Errorf("admitted=%d shed=%d, want 3/3", admitted, shed)
	}
	st := q.ClassStats(ClassInvoke)
	if st.ShedQueueFull != 3 {
		t.Errorf("ShedQueueFull = %d, want 3", st.ShedQueueFull)
	}
	var oe *OverloadError
	env.Go("late", func(p *sim.Proc) {
		// Queue drained; this admits.
		g, err := q.Admit(p, ClassInvoke)
		if err != nil {
			t.Errorf("post-drain Admit: %v", err)
		}
		g.Release()
	})
	env.Run()
	_ = oe
}

func TestOverloadErrorClassification(t *testing.T) {
	err := error(&OverloadError{Class: ClassData, Reason: "queue-full"})
	if !errors.Is(err, ErrOverload) {
		t.Error("OverloadError does not match ErrOverload")
	}
	if fault.Retryable(err) {
		t.Error("overload shed classified retryable; retry storms survive")
	}
	if fault.Retryable(ErrOverload) {
		t.Error("ErrOverload sentinel classified retryable")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-full" {
		t.Errorf("errors.As round-trip failed: %v", oe)
	}
	if err.Error() == "" || ErrOverload.Error() == "" {
		t.Error("empty error strings")
	}
}

func TestDeadlineShedsStaleQueuedWork(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 1, MaxQueueDelay: 5 * time.Millisecond})
	var order []string
	env.Go("hog", func(p *sim.Proc) {
		g, err := q.Admit(p, ClassInvoke)
		if err != nil {
			t.Errorf("hog: %v", err)
			return
		}
		p.Sleep(20 * time.Millisecond) // far past the queue-delay budget
		g.Release()
		order = append(order, "hog-done")
	})
	env.Go("victim", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // queue behind the hog
		_, err := q.Admit(p, ClassInvoke)
		if !errors.Is(err, ErrOverload) {
			t.Errorf("victim err = %v, want overload", err)
		}
		var oe *OverloadError
		if errors.As(err, &oe) && oe.Reason != "deadline" {
			t.Errorf("reason = %q, want deadline", oe.Reason)
		}
		order = append(order, "victim-shed")
	})
	env.Run()
	if len(order) != 2 || order[0] != "hog-done" {
		t.Errorf("order = %v", order)
	}
	if st := q.ClassStats(ClassInvoke); st.ShedDeadline != 1 {
		t.Errorf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// TestFIFOArrivalOrder: a limit-1 class admits the procs parked behind a
// busy slot in the order they arrived, not the order they were spawned.
func TestFIFOArrivalOrder(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 1})
	env.Go("hog", func(p *sim.Proc) {
		g, err := q.Admit(p, ClassInvoke)
		if err != nil {
			t.Errorf("hog: %v", err)
			return
		}
		p.Sleep(10 * time.Millisecond)
		g.Release()
	})
	var order []int
	for _, at := range []int{3, 1, 4, 5, 2} {
		env.Go("op", func(p *sim.Proc) {
			p.Sleep(sim.Duration(at) * time.Microsecond)
			g, err := q.Admit(p, ClassInvoke)
			if err != nil {
				t.Errorf("op %d: %v", at, err)
				return
			}
			order = append(order, at)
			p.Sleep(time.Millisecond)
			g.Release()
		})
	}
	env.Run()
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("admission order = %v, want %v", order, want)
	}
	if st := q.ClassStats(ClassInvoke); st.MaxQueued != 5 {
		t.Errorf("MaxQueued = %d, want 5", st.MaxQueued)
	}
}

func TestCapacityDerivation(t *testing.T) {
	env := sim.NewEnv(1)
	cl := cluster.New(env, simnet.New(env, simnet.DC2021), cluster.Config{
		Racks: 2, NodesPerRack: 2,
		NodeCap: cluster.Resources{MilliCPU: 4000, MemMB: 8192},
	})
	// 1000 mCPU, 1024 MB per op → min(4, 8) = 4 per node × 4 nodes = 16.
	got := Capacity(cl, cluster.Resources{MilliCPU: 1000, MemMB: 1024})
	if got != 16 {
		t.Errorf("Capacity = %d, want 16", got)
	}
	if Capacity(nil, cluster.Resources{MilliCPU: 1}) != 0 {
		t.Error("nil cluster capacity != 0")
	}
	if Capacity(cl, cluster.Resources{}) != 0 {
		t.Error("zero footprint capacity != 0")
	}
	q := New(env, cl, Config{Invoke: ClassConfig{PerOp: cluster.Resources{MilliCPU: 1000, MemMB: 1024}}}, nil)
	if got := q.classes[ClassInvoke].limit; got != 16 {
		t.Errorf("derived limit = %d, want 16", got)
	}
}

func TestCoDelShedsStandingQueue(t *testing.T) {
	// Limit 1, service 10ms, CoDel target 2ms, and a standing backlog:
	// sojourn times sit far above target from the first dispatch on, so
	// once a full coDelInterval has passed CoDel must begin shedding
	// queued requests, and not before.
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{
		MaxConcurrency: 1,
		CoDelTarget:    2 * time.Millisecond,
	})
	var admitted, shed int
	var firstShed sim.Time
	for i := 0; i < 40; i++ {
		i := i
		env.Go("op", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * time.Millisecond) // 1/ms arrival ramp
			g, err := q.Admit(p, ClassInvoke)
			if err != nil {
				if shed == 0 {
					firstShed = p.Now()
				}
				shed++
				return
			}
			admitted++
			p.Sleep(10 * time.Millisecond)
			g.Release()
		})
	}
	env.Run()
	st := q.ClassStats(ClassInvoke)
	if st.ShedCoDel == 0 {
		t.Errorf("CoDel shed nothing under a standing queue (admitted=%d shed=%d)", admitted, shed)
	}
	if admitted == 0 {
		t.Error("CoDel shed everything")
	}
	if admitted+shed != 40 {
		t.Errorf("admitted+shed = %d, want 40", admitted+shed)
	}
	if shed > 0 && firstShed < sim.Time(coDelInterval) {
		t.Errorf("first shed at %v, before one %v control interval", firstShed, coDelInterval)
	}
}

// TestInstrumentsWired reads what the controller registered: the class's
// five metrics at construction and the shed callback once per shed.
func TestInstrumentsWired(t *testing.T) {
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	q := New(env, nil, Config{Invoke: ClassConfig{MaxConcurrency: 1, MaxQueue: 1}}, reg)
	want := []string{"qos_invoke_admitted", "qos_invoke_inflight", "qos_invoke_queue_delay",
		"qos_invoke_queue_depth", "qos_invoke_shed"}
	if got := reg.Names(); !slices.Equal(got, want) {
		t.Fatalf("registered at construction = %v, want %v", got, want)
	}
	var shedNotes []string
	q.OnShed(func(label, reason string) {
		shedNotes = append(shedNotes, label+" "+reason)
	})
	for i := 0; i < 4; i++ {
		env.Go("op", func(p *sim.Proc) {
			g, err := q.Admit(p, ClassInvoke)
			if err != nil {
				return
			}
			p.Sleep(time.Millisecond)
			g.Release()
		})
	}
	env.Run()
	counter := func(name string) int64 {
		m := trace.Lookup[*metrics.Counter](reg, name)
		if m == nil {
			t.Fatalf("counter %s not registered", name)
		}
		return m.Value()
	}
	if a, s := counter("qos_invoke_admitted"), counter("qos_invoke_shed"); a != 2 || s != 2 {
		t.Errorf("admitted=%d shed=%d, want 2/2", a, s)
	}
	delay := trace.Lookup[*metrics.Histogram](reg, "qos_invoke_queue_delay")
	if lo, hi := delay.Quantile(0), delay.Quantile(1); delay.Count() != 2 || lo != 0 || hi != time.Millisecond {
		t.Errorf("delays n=%d min=%v max=%v, want 2 in [0, 1ms]", delay.Count(), lo, hi)
	}
	for _, name := range []string{"qos_invoke_inflight", "qos_invoke_queue_depth"} {
		g := trace.Lookup[*metrics.Gauge](reg, name)
		if s := g.Snapshot(); s.Level != 0 || s.Max != 1 {
			t.Errorf("%s level=%v max=%v, want 0/1", name, s.Level, s.Max)
		}
	}
	wantNotes := []string{"qos_invoke queue-full", "qos_invoke queue-full"}
	if !slices.Equal(shedNotes, wantNotes) {
		t.Errorf("shed callbacks = %v, want %v", shedNotes, wantNotes)
	}
}

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassInvoke.String() != "invoke" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class renders empty")
	}
}

// Admission allocates nothing per operation in steady state: neither the
// fast path through a free slot nor a queued Admit that a Release's
// dispatch admits. Counts are measured by testing.AllocsPerRun inside a
// running process; its first, unmeasured call grows every backing array.
func TestAdmitReleaseAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	q := testController(env, ClassConfig{MaxConcurrency: 1})
	var free float64
	env.Go("op", func(p *sim.Proc) {
		free = testing.AllocsPerRun(100, func() {
			g, _ := q.Admit(p, ClassInvoke)
			g.Release()
		})
	})
	env.Run()
	if free != 0 {
		t.Errorf("Admit+Release on a free slot: %v allocations per call, want 0", free)
	}

	// holder and op take turns at the one slot, so each of op's Admits
	// queues behind holder and is admitted by holder's Release.
	env = sim.NewEnv(1)
	q = testController(env, ClassConfig{MaxConcurrency: 1})
	done := false
	env.Go("holder", func(p *sim.Proc) {
		for !done {
			g, _ := q.Admit(p, ClassInvoke)
			p.Sleep(time.Microsecond)
			g.Release()
		}
	})
	var queued float64
	env.Go("op", func(p *sim.Proc) {
		queued = testing.AllocsPerRun(100, func() {
			g, _ := q.Admit(p, ClassInvoke)
			p.Sleep(time.Microsecond)
			g.Release()
		})
		done = true
	})
	env.Run()
	if queued != 0 {
		t.Errorf("queued Admit admitted by dispatch: %v allocations per call, want 0", queued)
	}
	if st := q.ClassStats(ClassInvoke); st.MaxQueued != 1 || st.Admitted < 2*101 {
		t.Errorf("stats = %+v, want every Admit queued behind the other process", st)
	}
}
