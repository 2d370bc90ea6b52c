package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func smallCluster(env *sim.Env) (*simnet.Network, *cluster.Cluster) {
	net := simnet.New(env, simnet.DC2021)
	cl := cluster.New(env, net, cluster.Config{
		Racks: 2, NodesPerRack: 2,
		NodeCap: cluster.Resources{MilliCPU: 8000, MemMB: 16384},
	})
	return net, cl
}

// attach gives env an injector from s, wired to net and cl.
func attach(s *Session, env *sim.Env, net *simnet.Network, cl *cluster.Cluster) *Injector {
	in := s.Attach(env)
	in.Wire(net, cl)
	return in
}

// An idle spec (rate ≤ 0, no schedule) must attach nothing at all — the
// zero-perturbation guarantee.
func TestIdleSpecAttachesNothing(t *testing.T) {
	for _, rate := range []float64{0, -0.5} {
		s := NewSession(Spec{Rate: rate, Retry: DefaultPolicy()})
		env := sim.NewEnv(1)
		if in := s.Attach(env); in != nil {
			t.Fatalf("Attach returned an injector for an idle spec at rate %g", rate)
		}
		if in := Of(env); in != nil {
			t.Fatalf("Of found an injector for an idle spec at rate %g", rate)
		}
		if len(s.Counters()) != 0 {
			t.Errorf("idle session at rate %g has counters: %v", rate, s.Counters())
		}
	}
}

// With no session attached, Of returns nil and every Injector method is a
// nil-safe no-op.
func TestNilInjectorSafe(t *testing.T) {
	env := sim.NewEnv(1)
	in := Of(env)
	if in != nil {
		t.Fatal("Of returned an injector with no session attached")
	}
	in.Wire(nil, nil)
	in.Observe(func(Notice) {})
	in.OnNodeDown(func(simnet.NodeID, bool) {})
	in.Note("x")
	in.healPartition()
	env.Go("op", func(p *sim.Proc) {
		if err := in.OpFault(p, "op"); err != nil {
			t.Errorf("nil OpFault = %v", err)
		}
	})
	env.Run()
}

// Sessions are values: each injects only into the environments attached to
// it, and attaching one environment twice keeps its first injector.
func TestSessionsAreIndependent(t *testing.T) {
	a, b := NewSession(Spec{Rate: 0.1}), NewSession(Spec{Rate: 0.1})
	ea, eb, none := sim.NewEnv(1), sim.NewEnv(1), sim.NewEnv(1)
	ina := a.Attach(ea)
	if ina == nil || a.Attach(ea) != ina || b.Attach(eb) == ina || Of(ea) != ina {
		t.Fatal("an environment's injector is not its own session's")
	}
	if Of(none) != nil {
		t.Fatal("an unattached environment has an injector")
	}
	ina.Note("x")
	if len(a.Counters()) != 1 || len(b.Counters()) != 0 {
		t.Fatalf("counters leaked across sessions: %v / %v", a.Counters(), b.Counters())
	}
}

// Injected faults draw only from observer streams: the env's shared random
// stream yields the same sequence whether or not injection is active.
func TestInjectionDoesNotPerturbSharedStream(t *testing.T) {
	sample := func(inject bool) []float64 {
		env := sim.NewEnv(42)
		var in *Injector
		if inject {
			in = NewSession(Spec{Rate: 0.5}).Attach(env)
		}
		if inject && in == nil {
			t.Fatal("no injector attached")
		}
		env.Go("ops", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				in.OpFault(p, "probe") //nolint:errcheck
			}
		})
		env.Run()
		out := make([]float64, 32)
		for i := range out {
			out[i] = env.Rand().Float64()
		}
		return out
	}
	clean, faulty := sample(false), sample(true)
	if !reflect.DeepEqual(clean, faulty) {
		t.Fatal("active injection perturbed the env's shared random stream")
	}
}

// A wired injector at rate r drops a message between two nodes with
// probability r, and duplicates and delays it with probability r/2 each:
// every count must fall within its 99% binomial interval. A node's message
// to itself is never faulted.
func TestLinkFaultMix(t *testing.T) {
	const r, n = 0.2, 20000
	s := NewSession(Spec{Rate: r})
	env := sim.NewEnv(7)
	net, cl := smallCluster(env)
	in := attach(s, env, net, cl)
	var drops, dups, spikes int
	for i := 0; i < n; i++ {
		lf := in.linkFault(0, 2, 512)
		if lf.Drop {
			drops++
		}
		if lf.Duplicate {
			dups++
		}
		if lf.ExtraDelay > 0 {
			spikes++
		}
	}
	for _, c := range []struct {
		mode string
		got  int
		p    float64
	}{{"drops", drops, r}, {"duplicates", dups, r / 2}, {"spikes", spikes, r / 2}} {
		mean := n * c.p
		half := 2.576 * math.Sqrt(mean*(1-c.p))
		if math.Abs(float64(c.got)-mean) > half {
			t.Errorf("%s = %d/%d, want %.0f ± %.0f (rate %g)", c.mode, c.got, n, mean, half, c.p)
		}
	}
	before := s.Counters()
	for i := 0; i < 1000; i++ {
		if lf := in.linkFault(1, 1, 512); lf != (simnet.LinkFault{}) {
			t.Fatalf("a node's message to itself was faulted: %+v", lf)
		}
	}
	if after := s.Counters(); !reflect.DeepEqual(before, after) {
		t.Errorf("self-messages moved the counters: %v → %v", before, after)
	}
}

// OpFault injects errors at the rate and timeouts at half of it (drawn only
// when no error was), and injected timeouts consume timeoutDelay of virtual
// time.
func TestOpFaultRatesAndTimeoutDelay(t *testing.T) {
	s := NewSession(Spec{Rate: 0.2})
	env := sim.NewEnv(3)
	in := s.Attach(env)
	var nerr, ntimeout int
	env.Go("ops", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			before := p.Now()
			err := in.OpFault(p, "probe")
			switch {
			case errors.Is(err, ErrInjectedTimeout):
				ntimeout++
				if d := p.Now().Sub(before); d != timeoutDelay {
					t.Errorf("injected timeout blocked %v, want %v", d, timeoutDelay)
				}
			case errors.Is(err, ErrInjected):
				nerr++
			case err != nil:
				t.Errorf("unexpected error %v", err)
			}
		}
	})
	env.Run()
	if nerr < 150 || nerr > 250 {
		t.Errorf("injected errors = %d/1000, want ≈200", nerr)
	}
	if ntimeout < 50 || ntimeout > 120 {
		t.Errorf("injected timeouts = %d/1000, want ≈80", ntimeout)
	}
}

// A declarative schedule crashes and recovers nodes at exact virtual times.
func TestScheduleCrashRecover(t *testing.T) {
	s := NewSession(Spec{Schedule: []Event{
		// Deliberately out of order: armSchedule must sort by At.
		{At: 30 * time.Millisecond, Action: RecoverNode, Node: 1},
		{At: 10 * time.Millisecond, Action: CrashNode, Node: 1},
	}})
	env := sim.NewEnv(5)
	net, cl := smallCluster(env)
	if in := attach(s, env, net, cl); in == nil {
		t.Fatal("Attach returned nil for a scheduled spec")
	}
	n := cl.Node(1)
	env.RunUntil(sim.Time(0).Add(5 * time.Millisecond))
	if n.FailEvent().Done() {
		t.Error("node down before the scheduled crash")
	}
	env.RunUntil(sim.Time(0).Add(15 * time.Millisecond))
	if !n.FailEvent().Done() {
		t.Error("node not down after the scheduled crash")
	}
	env.RunUntil(sim.Time(0).Add(35 * time.Millisecond))
	if n.FailEvent().Done() {
		t.Error("node still down after the scheduled recovery")
	}
}

// Rack power events fail and restore every node in the rack.
func TestScheduleRackPower(t *testing.T) {
	s := NewSession(Spec{Schedule: []Event{
		{At: 10 * time.Millisecond, Action: RackPower, Rack: 1},
		{At: 20 * time.Millisecond, Action: RackRestore, Rack: 1},
	}})
	env := sim.NewEnv(5)
	net, cl := smallCluster(env)
	attach(s, env, net, cl)
	env.RunUntil(sim.Time(0).Add(15 * time.Millisecond))
	for _, n := range cl.Nodes() {
		if want := n.Rack == 1; n.FailEvent().Done() != want {
			t.Errorf("node %d (rack %d) down = %v at 15ms", n.ID, n.Rack, n.FailEvent().Done())
		}
	}
	env.RunUntil(sim.Time(0).Add(25 * time.Millisecond))
	for _, n := range cl.Nodes() {
		if n.FailEvent().Done() {
			t.Errorf("node %d still down after rack restore", n.ID)
		}
	}
}

// Partitions make cross-group pairs unreachable (unlisted nodes fall into
// group 0) and heal on schedule; HealAll clears any still-active partition.
func TestSchedulePartitionHeal(t *testing.T) {
	s := NewSession(Spec{Schedule: []Event{
		{At: 10 * time.Millisecond, Action: Partition, Groups: [][]simnet.NodeID{{0, 1}, {2}}},
		{At: 30 * time.Millisecond, Action: Heal},
		{At: 40 * time.Millisecond, Action: Partition, Groups: [][]simnet.NodeID{{0}, {1, 2, 3}}},
	}})
	env := sim.NewEnv(5)
	net, cl := smallCluster(env)
	attach(s, env, net, cl)
	env.RunUntil(sim.Time(0).Add(15 * time.Millisecond))
	if net.Reachable(0, 2) || net.Reachable(2, 0) {
		t.Error("partitioned pair 0↔2 still reachable")
	}
	if !net.Reachable(0, 1) {
		t.Error("same-group pair 0↔1 unreachable")
	}
	if net.Reachable(3, 2) {
		t.Error("unlisted node 3 should default to group 0, away from node 2")
	}
	env.RunUntil(sim.Time(0).Add(35 * time.Millisecond))
	if !net.Reachable(0, 2) {
		t.Error("pair 0↔2 unreachable after heal")
	}
	env.RunUntil(sim.Time(0).Add(45 * time.Millisecond))
	if net.Reachable(0, 3) {
		t.Error("second partition not applied")
	}
	s.HealAll()
	if !net.Reachable(0, 3) {
		t.Error("HealAll left the partition active")
	}
}

// Node crash/recover notifications reach OnNodeDown hooks and observers.
func TestObserversAndOnNodeDown(t *testing.T) {
	s := NewSession(Spec{Schedule: []Event{
		{At: 10 * time.Millisecond, Action: CrashNode, Node: 0},
		{At: 20 * time.Millisecond, Action: RecoverNode, Node: 0},
	}})
	env := sim.NewEnv(5)
	net, cl := smallCluster(env)
	in := attach(s, env, net, cl)
	var kinds []string
	in.Observe(func(n Notice) { kinds = append(kinds, n.Kind) })
	var downs, ups int
	in.OnNodeDown(func(id simnet.NodeID, down bool) {
		if down {
			downs++
		} else {
			ups++
		}
	})
	env.Run()
	if downs != 1 || ups != 1 {
		t.Errorf("OnNodeDown saw %d crashes, %d recoveries; want 1 and 1", downs, ups)
	}
	if !reflect.DeepEqual(kinds, []string{"node.crash", "node.recover"}) {
		t.Errorf("observed kinds = %v", kinds)
	}
}

// Two sessions with identical specs over identical seeds produce identical
// counters — the whole-sweep determinism the chaos harness relies on.
func TestSessionCountersDeterministic(t *testing.T) {
	run := func() []Counter {
		s := NewSession(Spec{Rate: 0.2})
		env := sim.NewEnv(13)
		net, cl := smallCluster(env)
		in := attach(s, env, net, cl)
		in.Note("retry.attempt")
		env.Go("traffic", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				net.Send(p, 0, 2, 512)
				in.OpFault(p, "probe") //nolint:errcheck
			}
		})
		env.Run()
		return s.Counters()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no counters recorded at a 20% fault rate")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counters diverged across identical runs:\n%v\n%v", a, b)
	}
}
