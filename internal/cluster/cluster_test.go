package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func newCluster(t *testing.T, cfg Config) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv(1)
	net := simnet.New(env, simnet.DC2021)
	return env, New(env, net, cfg)
}

func small() Config {
	return Config{
		Racks:           2,
		NodesPerRack:    4,
		NodeCap:         Resources{MilliCPU: 8000, MemMB: 16384},
		GPUNodesPerRack: 1,
	}
}

func TestClusterLayout(t *testing.T) {
	_, c := newCluster(t, small())
	if len(c.Nodes()) != 8 {
		t.Fatalf("nodes = %d, want 8", len(c.Nodes()))
	}
	gpus := 0
	for _, n := range c.Nodes() {
		if n.HasGPU() {
			gpus++
		}
	}
	if gpus != 2 {
		t.Errorf("GPU nodes = %d, want 2 (1 per rack)", gpus)
	}
	// Racks must be reflected on the network for RTT purposes.
	a, b, same := c.Nodes()[0], c.Nodes()[4], c.Nodes()[1]
	if c.Net().RTT(a.ID, b.ID) == c.Net().RTT(a.ID, same.ID) {
		t.Error("nodes from different racks see the same RTT as rack mates")
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{1000, 2048, 1}
	b := Resources{500, 1024, 0}
	if got := a.Add(b); got != (Resources{1500, 3072, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resources{500, 1024, 1}) {
		t.Errorf("Sub = %v", got)
	}
	if !b.Fits(a) {
		t.Error("b should fit in a")
	}
	if a.Fits(b) {
		t.Error("a should not fit in b")
	}
}

func TestAllocateRelease(t *testing.T) {
	_, c := newCluster(t, small())
	n := c.Nodes()[0]
	a, err := c.Allocate(n, Resources{MilliCPU: 4000, MemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if n.used.MilliCPU != 4000 {
		t.Errorf("Used = %v", n.used)
	}
	if n.Free().MilliCPU != 4000 {
		t.Errorf("Free = %v", n.Free())
	}
	if err := c.Release(a); err != nil {
		t.Fatal(err)
	}
	if n.used != (Resources{}) {
		t.Errorf("Used after release = %v, want zero", n.used)
	}
}

func TestDoubleReleaseFails(t *testing.T) {
	_, c := newCluster(t, small())
	a, _ := c.Allocate(c.Nodes()[0], Resources{MilliCPU: 100})
	if err := c.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(a); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestAllocateOverCapacityFails(t *testing.T) {
	_, c := newCluster(t, small())
	n := c.Nodes()[0]
	_, err := c.Allocate(n, Resources{MilliCPU: 9000})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	// Partial fit must also fail atomically.
	if _, err := c.Allocate(n, Resources{MilliCPU: 100, MemMB: 1 << 30}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if n.used != (Resources{}) {
		t.Errorf("failed allocation left usage %v", n.used)
	}
}

func TestFirstFitPrefersNonGPUNodes(t *testing.T) {
	_, c := newCluster(t, small())
	n := c.FirstFit(Resources{MilliCPU: 1000})
	if n == nil {
		t.Fatal("no fit found")
	}
	if n.HasGPU() {
		t.Error("FirstFit placed CPU-only work on a GPU node with CPU nodes free")
	}
	g := c.FirstFit(Resources{MilliCPU: 1000, GPUs: 1})
	if g == nil || !g.HasGPU() {
		t.Fatal("FirstFit failed to find GPU node for GPU request")
	}
}

func TestFirstFitFallsBackToGPUNodes(t *testing.T) {
	_, c := newCluster(t, small())
	// Fill every non-GPU node.
	for _, n := range c.Nodes() {
		if !n.HasGPU() {
			if _, err := c.Allocate(n, n.Cap); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := c.FirstFit(Resources{MilliCPU: 1000})
	if n == nil {
		t.Fatal("no fallback fit found")
	}
	if !n.HasGPU() {
		t.Error("expected fallback onto GPU node")
	}
}

func TestBestFitPacksTightly(t *testing.T) {
	_, c := newCluster(t, small())
	// Leave node 1 with little free CPU.
	n1 := c.Nodes()[1]
	if _, err := c.Allocate(n1, Resources{MilliCPU: 7000}); err != nil {
		t.Fatal(err)
	}
	got := c.BestFit(Resources{MilliCPU: 500})
	if got != n1 {
		t.Errorf("BestFit chose node %d, want tightly-packed node %d", got.ID, n1.ID)
	}
}

func TestMostIdleOrdering(t *testing.T) {
	_, c := newCluster(t, small())
	if _, err := c.Allocate(c.Nodes()[0], Resources{MilliCPU: 6000}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(c.Nodes()[1], Resources{MilliCPU: 2000}); err != nil {
		t.Fatal(err)
	}
	order := c.MostIdle(Resources{MilliCPU: 100})
	if len(order) == 0 {
		t.Fatal("no nodes")
	}
	for i := 1; i < len(order); i++ {
		if order[i-1].CurrentCPUFrac() > order[i].CurrentCPUFrac() {
			t.Fatal("MostIdle not sorted by utilisation")
		}
	}
	if order[len(order)-1] != c.Nodes()[0] {
		t.Error("busiest node not last")
	}
}

func TestRandomFitRespectsCapacity(t *testing.T) {
	_, c := newCluster(t, small())
	for _, n := range c.Nodes() {
		if _, err := c.Allocate(n, n.Cap); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.RandomFit(Resources{MilliCPU: 1}); n != nil {
		t.Error("RandomFit found node in a full cluster")
	}
}

func TestUtilizationTimeWeighted(t *testing.T) {
	env, c := newCluster(t, small())
	n := c.Nodes()[0]
	env.Go("load", func(p *sim.Proc) {
		a, err := c.Allocate(n, Resources{MilliCPU: 8000}) // 100%
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(100)
		if err := c.Release(a); err != nil {
			t.Error(err)
		}
		p.Sleep(100) // 0% for the second half
	})
	env.Run()
	u := n.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("Utilization = %v, want ~0.5", u)
	}
}

func TestTotals(t *testing.T) {
	_, c := newCluster(t, small())
	var cap, used Resources
	sum := func() {
		cap, used = Resources{}, Resources{}
		for _, n := range c.Nodes() {
			cap, used = cap.Add(n.Cap), used.Add(n.used)
		}
	}
	sum()
	if cap.MilliCPU != 8*8000 {
		t.Errorf("total capacity CPU = %d", cap.MilliCPU)
	}
	if cap.GPUs != 8 {
		t.Errorf("total capacity GPUs = %d, want 8 (2 GPU nodes of 4)", cap.GPUs)
	}
	if _, err := c.Allocate(c.Nodes()[2], Resources{MilliCPU: 123}); err != nil {
		t.Fatal(err)
	}
	if sum(); used.MilliCPU != 123 {
		t.Errorf("total used = %v", used)
	}
}

func TestScavengeMarksAllocation(t *testing.T) {
	_, c := newCluster(t, small())
	a, err := c.Scavenge(c.Nodes()[0], Resources{MilliCPU: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Scavenged {
		t.Error("Scavenge did not mark allocation")
	}
	b, err := c.Allocate(c.Nodes()[0], Resources{MilliCPU: 100})
	if err != nil {
		t.Fatal(err)
	}
	if b.Scavenged {
		t.Error("Allocate marked allocation scavenged")
	}
}

// Regression: SetDown must fail in-flight waiters at the fault time, not
// leave them blocked until their own work completes.
func TestSetDownFailsInFlight(t *testing.T) {
	env, c := newCluster(t, small())
	n := c.Nodes()[0]
	var werr error
	var at sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		_, werr = p.Wait(n.FailEvent())
		at = p.Now()
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		c.SetDown(n.ID, true)
	})
	env.Run()
	if !errors.Is(werr, ErrNodeDown) {
		t.Fatalf("waiter error = %v, want ErrNodeDown", werr)
	}
	if want := sim.Time(0).Add(10 * time.Millisecond); at != want {
		t.Errorf("waiter released at %v, want the fault time %v", at, want)
	}
}

func TestFailEventLifecycle(t *testing.T) {
	_, c := newCluster(t, small())
	n := c.Nodes()[0]
	if n.FailEvent().Done() {
		t.Fatal("fresh node's FailEvent already done")
	}
	c.SetDown(n.ID, true)
	if !n.FailEvent().Done() {
		t.Fatal("FailEvent still pending after SetDown")
	}
	// Asking a downed node for its event yields an already-failed one.
	if _, err := n.FailEvent().Value(); !errors.Is(err, ErrNodeDown) {
		t.Errorf("downed node's FailEvent error = %v", err)
	}
	c.SetDown(n.ID, true) // redundant transition is a no-op
	c.SetDown(n.ID, false)
	if n.FailEvent().Done() {
		t.Error("recovery did not mint a fresh pending event")
	}
	c.SetDown(n.ID, false) // redundant recovery is a no-op
	if n.down {
		t.Error("node still down after recovery")
	}
}

// Property: any sequence of allocate/release keeps usage within [0, cap].
func TestAllocationInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv(3)
		net := simnet.New(env, simnet.DC2021)
		c := New(env, net, Config{Racks: 1, NodesPerRack: 1, NodeCap: Resources{MilliCPU: 1000, MemMB: 1000}})
		n := c.Nodes()[0]
		var live []*Alloc
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				res := Resources{MilliCPU: int64(op%7) * 100, MemMB: int64(op%5) * 100}
				if a, err := c.Allocate(n, res); err == nil {
					live = append(live, a)
				}
			} else {
				a := live[len(live)-1]
				live = live[:len(live)-1]
				if err := c.Release(a); err != nil {
					return false
				}
			}
			u := n.used
			if u.MilliCPU < 0 || u.MemMB < 0 || !u.Fits(n.Cap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
