package faas

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// randomPlacer is a trivial in-package placer so faas tests don't depend
// on internal/scheduler.
type randomPlacer struct{ c *cluster.Cluster }

func (r randomPlacer) Place(res cluster.Resources, hints PlacementHints) (*cluster.Node, bool) {
	if hints.HasNear {
		if n := r.c.Node(hints.NearNode); n != nil && res.Fits(n.Free()) {
			return n, false
		}
	}
	return r.c.BestFit(res), false
}

func testRuntime(seed int64, cfg Config) (*sim.Env, *Runtime) {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	cl := cluster.New(env, net, cluster.Config{
		Racks: 2, NodesPerRack: 4,
		NodeCap:         cluster.Resources{MilliCPU: 16000, MemMB: 32768},
		GPUNodesPerRack: 1, GPUsPerGPUNode: 2,
	})
	cfg.CodeStore = net.AddNode(0)
	return env, NewRuntime(cl, randomPlacer{cl}, cfg)
}

func sleeper(d time.Duration) HandlerFunc {
	return func(inv *Invocation) error {
		inv.Proc().Sleep(d)
		return nil
	}
}

func wasmFn(name string, h HandlerFunc) *Function {
	return &Function{Name: name, Kind: platform.Wasm, CodeSize: 1 << 20, Handler: h}
}

func TestRegisterAndInvoke(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	if err := rt.Register(wasmFn("f", sleeper(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		inst, err := rt.Invoke(p, "f", []byte("body"), PlacementHints{}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if inst == nil || inst.Node == nil {
			t.Error("no instance")
		}
	})
	env.Run()
	if rt.Invocations.Value() != 1 || rt.ColdStarts.Value() != 1 {
		t.Errorf("invocations=%d cold=%d", rt.Invocations.Value(), rt.ColdStarts.Value())
	}
}

func TestRegisterValidation(t *testing.T) {
	_, rt := testRuntime(1, Config{})
	if err := rt.Register(&Function{Name: "", Handler: sleeper(0)}); err == nil {
		t.Error("nameless function accepted")
	}
	if err := rt.Register(&Function{Name: "x"}); err == nil {
		t.Error("handlerless function accepted")
	}
	if err := rt.Register(wasmFn("dup", sleeper(0))); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(wasmFn("dup", sleeper(0))); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestUnknownFunction(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	env.Go("c", func(p *sim.Proc) {
		_, err := rt.Invoke(p, "ghost", nil, PlacementHints{}, nil)
		if !errors.Is(err, ErrUnknownFunction) {
			t.Errorf("err = %v", err)
		}
	})
	env.Run()
}

func TestBodySizeLimit(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	if err := rt.Register(wasmFn("f", sleeper(0))); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		_, err := rt.Invoke(p, "f", make([]byte, MaxBodySize+1), PlacementHints{}, nil)
		if !errors.Is(err, ErrBodyTooLarge) {
			t.Errorf("err = %v", err)
		}
	})
	env.Run()
}

// A function no node can host fails with an error that matches
// ErrNoPlacement, is retryable, and reads as the wrapped sentinel did.
func TestNoPlacementError(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	fn := wasmFn("huge", sleeper(0))
	fn.Res = cluster.Resources{MemMB: 1 << 30}
	if err := rt.Register(fn); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		_, err := rt.Invoke(p, "huge", nil, PlacementHints{}, nil)
		want := fmt.Errorf("%w: %q needs %v", ErrNoPlacement, "huge", variantFootprint(variants(fn)[0]))
		if !errors.Is(err, ErrNoPlacement) || !fault.Retryable(err) || err.Error() != want.Error() {
			t.Errorf("err = %v (retryable %v), want %v", err, fault.Retryable(err), want)
		}
	})
	env.Run()
}

// fault.Retryable classifies a placement failure as errors.As with a
// fault.Classified target did, bare, wrapped and joined, and allocates
// nothing doing so.
func TestNoPlacementClassifiedAsErrorsAsDid(t *testing.T) {
	np := noPlacement{"huge", cluster.Resources{MemMB: 1 << 30}}
	for _, err := range []error{
		np,
		fmt.Errorf("invoke: %w", np),
		errors.Join(errors.New("ctx"), np),
	} {
		var c fault.Classified
		want := errors.As(err, &c) && c.Retryable()
		if got := fault.Retryable(err); got != want || !got {
			t.Errorf("Retryable(%v) = %v, errors.As says %v", err, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { fault.Retryable(err) }); n != 0 {
			t.Errorf("Retryable(%v) allocates %v times", err, n)
		}
	}
}

// A retry policy that gives up on a placement failure returns an error that
// still matches ErrNoPlacement and classifies as the %w-wrapped text it
// replaced did, whether the attempts or the deadline ran out.
func TestNoPlacementThroughGiveUp(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	fn := wasmFn("huge", sleeper(0))
	fn.Res = cluster.Resources{MemMB: 1 << 30}
	if err := rt.Register(fn); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []*fault.Policy{
		{MaxAttempts: 3, Backoff: fault.Backoff{Base: time.Millisecond}},
		{MaxAttempts: 100, Deadline: 10 * time.Millisecond, Backoff: fault.Backoff{Base: time.Millisecond}},
	} {
		q := pol.Bind(env)
		env.Go("c", func(p *sim.Proc) {
			var last error
			err := q.Do(p, "faas.invoke", func() error {
				_, last = rt.Invoke(p, "huge", nil, PlacementHints{}, nil)
				return last
			})
			old := fmt.Errorf("fault: %s failed after %d attempts: %w", "faas.invoke", 3, last)
			gaveUp := "faas.invoke failed after 3 attempts"
			if pol.Deadline > 0 {
				gaveUp = "faas.invoke retry deadline 10ms exhausted"
			}
			if !strings.Contains(fmt.Sprint(err), gaveUp) {
				t.Errorf("err = %v, want it to say %q", err, gaveUp)
			}
			if !errors.Is(err, ErrNoPlacement) || fault.Retryable(err) != fault.Retryable(old) {
				t.Errorf("deadline %v: err = %v (retryable %v), want ErrNoPlacement in the chain, retryable %v",
					pol.Deadline, err, fault.Retryable(err), fault.Retryable(old))
			}
		})
		env.Run()
	}
}

func TestWarmReuse(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	if err := rt.Register(wasmFn("f", sleeper(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	if rt.ColdStarts.Value() != 1 {
		t.Errorf("cold starts = %d, want 1", rt.ColdStarts.Value())
	}
	if rt.WarmStarts.Value() != 4 {
		t.Errorf("warm starts = %d, want 4", rt.WarmStarts.Value())
	}
}

func TestColdStartLatencyVisible(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	fn := &Function{Name: "vm", Kind: platform.MicroVM, CodeSize: 0, Handler: sleeper(0)}
	if err := rt.Register(fn); err != nil {
		t.Fatal(err)
	}
	var cold, warm time.Duration
	env.Go("c", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := rt.Invoke(p, "vm", nil, PlacementHints{}, nil); err != nil {
			t.Error(err)
		}
		cold = p.Now().Sub(t0)
		t0 = p.Now()
		if _, err := rt.Invoke(p, "vm", nil, PlacementHints{}, nil); err != nil {
			t.Error(err)
		}
		warm = p.Now().Sub(t0)
	})
	env.Run()
	spec := platform.Specs(platform.MicroVM)
	if cold < spec.ColdStart {
		t.Errorf("cold invoke %v < platform cold start %v", cold, spec.ColdStart)
	}
	if warm >= spec.ColdStart {
		t.Errorf("warm invoke %v paid a cold start", warm)
	}
}

func TestAutoscaleFromZeroToMany(t *testing.T) {
	env, rt := testRuntime(2, Config{})
	if err := rt.Register(wasmFn("f", sleeper(10*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	const burst = 50
	done := env.NewBarrier(burst)
	for i := 0; i < burst; i++ {
		env.Go("c", func(p *sim.Proc) {
			if _, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil); err != nil {
				t.Error(err)
			}
			done.Arrive()
		})
	}
	env.Run()
	// All 50 arrive at t=0 with no warm instances: every one cold-starts.
	if rt.ColdStarts.Value() != burst {
		t.Errorf("cold starts = %d, want %d (scale from zero)", rt.ColdStarts.Value(), burst)
	}
	if rt.WarmCount("f") != burst {
		t.Errorf("warm count = %d, want %d", rt.WarmCount("f"), burst)
	}
}

func TestIdleReaperShrinksToZero(t *testing.T) {
	env, rt := testRuntime(3, Config{IdleTimeout: 50 * time.Millisecond})
	if err := rt.Register(wasmFn("f", sleeper(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil); err != nil {
			t.Error(err)
		}
	})
	env.RunUntil(sim.Time(time.Second))
	if rt.WarmCount("f") != 0 {
		t.Errorf("warm count = %d after idle timeout, want 0 (scale to zero)", rt.WarmCount("f"))
	}
	// Resources must have been released.
	for _, n := range rt.cl.Nodes() {
		if n.Free() != n.Cap {
			t.Errorf("node %d still holds %v after reap", n.ID, n.Cap.Sub(n.Free()))
		}
	}
}

// No state survives an invocation except through the data layer: each call
// on a reused instance gets a fresh Invocation carrying only its own body
// (a copy: scribbling on it reaches neither the caller nor the next call)
// and its own context.
func TestNoImplicitState(t *testing.T) {
	env, rt := testRuntime(4, Config{})
	seen := map[*Invocation]bool{}
	var leaked []string
	fn := wasmFn("stateful", func(inv *Invocation) error {
		if seen[inv] {
			leaked = append(leaked, "an Invocation was handed out twice")
		}
		seen[inv] = true
		if string(inv.Body) != "abc" {
			leaked = append(leaked, "body "+string(inv.Body)+" carried over")
		}
		if inv.Ctx != inv.Seq {
			leaked = append(leaked, "another call's context")
		}
		inv.Body[0] = 'X'
		return nil
	})
	if err := rt.Register(fn); err != nil {
		t.Fatal(err)
	}
	body := []byte("abc")
	env.Go("c", func(p *sim.Proc) {
		for i := int64(1); i <= 3; i++ {
			if _, err := rt.Invoke(p, "stateful", body, PlacementHints{}, i); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	if len(leaked) > 0 || len(seen) != 3 || string(body) != "abc" {
		t.Errorf("state survived across invocations — no-implicit-state violated: %v, %d invocations, caller's body %q", leaked, len(seen), body)
	}
	if rt.WarmStarts.Value() != 2 {
		t.Errorf("warm starts = %d (instances were reused, state still must not leak)", rt.WarmStarts.Value())
	}
}

func TestPlacementHintHonoured(t *testing.T) {
	env, rt := testRuntime(5, Config{})
	if err := rt.Register(wasmFn("f", sleeper(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	target := rt.cl.Nodes()[3]
	env.Go("c", func(p *sim.Proc) {
		inst, err := rt.Invoke(p, "f", nil, PlacementHints{NearNode: target.ID, HasNear: true}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if inst.Node.ID != target.ID {
			t.Errorf("placed on %v, hinted %v", inst.Node.ID, target.ID)
		}
	})
	env.Run()
}

func TestHandlerErrorPropagates(t *testing.T) {
	env, rt := testRuntime(6, Config{})
	boom := errors.New("boom")
	if err := rt.Register(wasmFn("bad", func(*Invocation) error { return boom })); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, "bad", nil, PlacementHints{}, nil); !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	})
	env.Run()
}

func TestBillingAccumulates(t *testing.T) {
	env, rt := testRuntime(7, Config{})
	if err := rt.Register(wasmFn("f", sleeper(100*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if rt.Meter.Total() <= 0 {
		t.Error("no compute charge recorded")
	}
	if rt.BusySeconds < 0.09 {
		t.Errorf("BusySeconds = %v, want ~0.1", rt.BusySeconds)
	}
	rt.Drain()
	if rt.InstanceSeconds <= 0 {
		t.Error("Drain did not account instance seconds")
	}
}

func TestConcurrencySharing(t *testing.T) {
	env, rt := testRuntime(8, Config{})
	fn := wasmFn("shared", sleeper(10*time.Millisecond))
	fn.Concurrency = 8
	if err := rt.Register(fn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		delay := time.Duration(i) * time.Millisecond // arrive while instance 1 is busy
		env.Go("c", func(p *sim.Proc) {
			p.Sleep(delay)
			if _, err := rt.Invoke(p, "shared", nil, PlacementHints{}, nil); err != nil {
				t.Error(err)
			}
		})
	}
	env.Run()
	if rt.ColdStarts.Value() != 1 {
		t.Errorf("cold starts = %d, want 1 (concurrency=8 shares one instance)", rt.ColdStarts.Value())
	}
}

func TestFailNodeKillsInstancesAndReplaces(t *testing.T) {
	env, rt := testRuntime(9, Config{})
	if err := rt.Register(wasmFn("f", sleeper(time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	var firstNode simnet.NodeID
	env.Go("c", func(p *sim.Proc) {
		inst, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		firstNode = inst.Node.ID
		// The machine dies.
		if killed := rt.FailNode(firstNode); killed != 1 {
			t.Errorf("FailNode killed %d, want 1", killed)
		}
		if rt.WarmCount("f") != 0 {
			t.Errorf("warm count = %d after node failure", rt.WarmCount("f"))
		}
		// Next invocation re-places (cold) and succeeds.
		inst2, err := rt.Invoke(p, "f", nil, PlacementHints{}, nil)
		if err != nil {
			t.Errorf("invoke after node failure: %v", err)
			return
		}
		if inst2 == nil {
			t.Error("no replacement instance")
		}
	})
	env.Run()
	if rt.ColdStarts.Value() != 2 {
		t.Errorf("cold starts = %d, want 2", rt.ColdStarts.Value())
	}
	if rt.NodeFailKills != 1 {
		t.Errorf("NodeFailKills = %d", rt.NodeFailKills)
	}
	// Resources of the dead instances were released.
	if n := rt.cl.Node(firstNode); n.Free() != n.Cap {
		t.Errorf("failed node still holds %v", n.Cap.Sub(n.Free()))
	}
}

func TestFailNodeOnEmptyNodeIsNoop(t *testing.T) {
	_, rt := testRuntime(10, Config{})
	if killed := rt.FailNode(simnet.NodeID(0)); killed != 0 {
		t.Errorf("killed %d on empty node", killed)
	}
}

func TestFailNodeDuringInflightCallDoesNotResurrect(t *testing.T) {
	env, rt := testRuntime(17, Config{})
	if err := rt.Register(wasmFn("slow", sleeper(10*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	var inst *Instance
	env.Go("caller", func(p *sim.Proc) {
		var err error
		inst, err = rt.Invoke(p, "slow", nil, PlacementHints{}, nil)
		if err != nil {
			t.Error(err)
		}
	})
	env.Go("killer", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // mid-flight
		for _, n := range rt.cl.Nodes() {
			rt.FailNode(n.ID)
		}
	})
	env.Run()
	if inst == nil {
		t.Fatal("no instance")
	}
	// The dead instance must not have returned to the idle pool.
	if rt.WarmCount("slow") != 0 {
		t.Errorf("WarmCount = %d after node failure, want 0", rt.WarmCount("slow"))
	}
	// Accounting must be consistent: exactly one destroy, resources freed.
	for _, n := range rt.cl.Nodes() {
		if n.Free() != n.Cap {
			t.Errorf("node %d still holds %v", n.ID, n.Cap.Sub(n.Free()))
		}
	}
}

// With FailFast on (how chaos runs configure the runtime), an invocation
// whose node dies mid-call returns at the fault time with the node error
// instead of running to completion.
func TestFailFastInterruptsAtFaultTime(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	rt.SetFailFast(true) // the post-construction path core's chaos wiring uses
	if err := rt.Register(wasmFn("slow", sleeper(100*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	var ierr error
	var elapsed time.Duration
	env.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		_, ierr = rt.Invoke(p, "slow", nil, PlacementHints{}, nil)
		elapsed = p.Now().Sub(start)
	})
	env.Go("killer", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // mid-handler
		for _, n := range rt.cl.Nodes() {
			rt.FailNode(n.ID)
		}
	})
	env.Run()
	if !errors.Is(ierr, cluster.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown at the fault time", ierr)
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("invocation took %v: ran to completion despite node failure", elapsed)
	}
	// The dead instance must not return to the idle pool.
	if rt.WarmCount("slow") != 0 {
		t.Errorf("WarmCount = %d after node failure, want 0", rt.WarmCount("slow"))
	}
}

// Without FailFast (the default), the same scenario runs to completion —
// the historical inline path that keeps fault-free runs byte-identical.
func TestFailFastOffRunsToCompletion(t *testing.T) {
	env, rt := testRuntime(1, Config{})
	if err := rt.Register(wasmFn("slow", sleeper(100*time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	var ierr error
	var elapsed time.Duration
	env.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		_, ierr = rt.Invoke(p, "slow", nil, PlacementHints{}, nil)
		elapsed = p.Now().Sub(start)
	})
	env.Go("killer", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		for _, n := range rt.cl.Nodes() {
			rt.FailNode(n.ID)
		}
	})
	env.Run()
	if ierr != nil {
		t.Fatalf("err = %v, want completion with FailFast off", ierr)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("invocation took %v, want the full handler duration", elapsed)
	}
}
