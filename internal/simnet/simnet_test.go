package simnet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func newNet(t *testing.T, p Profile) (*sim.Env, *Network) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, New(env, p)
}

func TestTopologyFactors(t *testing.T) {
	_, net := newNet(t, DC2021)
	a := net.AddNode(0)
	b := net.AddNode(0)
	c := net.AddNode(1)
	if got := net.RTT(a, a); got != 2*time.Microsecond {
		t.Errorf("loopback RTT = %v, want 2µs", got)
	}
	if got := net.RTT(a, b); got != 100*time.Microsecond {
		t.Errorf("same-rack RTT = %v, want 100µs", got)
	}
	if got := net.RTT(a, c); got != 200*time.Microsecond {
		t.Errorf("cross-rack RTT = %v, want 200µs", got)
	}
}

func TestProfilesMatchTable1(t *testing.T) {
	cases := []struct {
		p    Profile
		want time.Duration
	}{
		{DC2005, time.Millisecond},
		{DC2021, 200 * time.Microsecond},
		{FastNet, time.Microsecond},
	}
	for _, c := range cases {
		if c.p.BaseRTT != c.want {
			t.Errorf("%s BaseRTT = %v, want %v (Table 1)", c.p.Name, c.p.BaseRTT, c.want)
		}
	}
}

func TestOneWayIncludesSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	p := DC2021
	p.JitterFrac = 0 // deterministic for this test
	net := New(env, p)
	a, b := net.AddNode(0), net.AddNode(1)
	small := net.OneWay(a, b, 0)
	big := net.OneWay(a, b, 1<<20) // 1 MiB at 1.25 GB/s ≈ 839µs extra
	extra := big - small
	wantExtra := time.Duration(float64(1<<20) / p.Bandwidth * float64(time.Second))
	if diff := extra - wantExtra; diff > time.Microsecond || diff < -time.Microsecond {
		t.Errorf("serialisation delay = %v, want ≈%v", extra, wantExtra)
	}
}

func TestSendAdvancesClockAndCounts(t *testing.T) {
	env, net := newNet(t, DC2021)
	a, b := net.AddNode(0), net.AddNode(1)
	var took time.Duration
	env.Go("sender", func(p *sim.Proc) {
		start := p.Now()
		net.Send(p, a, b, 1024)
		took = p.Now().Sub(start)
	})
	env.Run()
	if took < 100*time.Microsecond {
		t.Errorf("one-way send took %v, want >= half base RTT", took)
	}
	if net.Msgs != 1 || net.Bytes != 1024 {
		t.Errorf("stats = %d msgs / %d bytes, want 1/1024", net.Msgs, net.Bytes)
	}
}

func TestCallRoundTrip(t *testing.T) {
	env, net := newNet(t, DC2021)
	a, b := net.AddNode(0), net.AddNode(1)
	serverTime := 300 * time.Microsecond
	var rtt time.Duration
	env.Go("client", func(p *sim.Proc) {
		rtt = net.Call(p, a, b, 100, 1024, func(sp *sim.Proc) { sp.Sleep(serverTime) })
	})
	env.Run()
	if rtt < net.RTT(a, b)+serverTime {
		t.Errorf("Call RTT = %v, want >= %v", rtt, net.RTT(a, b)+serverTime)
	}
	if rtt > 2*(net.RTT(a, b)+serverTime) {
		t.Errorf("Call RTT = %v, implausibly large", rtt)
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	env := sim.NewEnv(42)
	net := New(env, DC2021)
	a, b := net.AddNode(0), net.AddNode(1)
	base := float64(net.RTT(a, b))/2 + float64(net.Profile().PerMsgOverhead)
	for i := 0; i < 1000; i++ {
		d := float64(net.OneWay(a, b, 0))
		if d < base || d > base*(1+net.Profile().JitterFrac)+1 {
			t.Fatalf("OneWay = %v outside jitter bounds [%v, %v]", time.Duration(d), time.Duration(base), time.Duration(base*1.1))
		}
	}
	// Determinism: same seed, same sequence.
	env2 := sim.NewEnv(42)
	net2 := New(env2, DC2021)
	a2, b2 := net2.AddNode(0), net2.AddNode(1)
	if net.OneWay(a, b, 64) == 0 {
		t.Fatal("zero delay")
	}
	x := New(sim.NewEnv(42), DC2021)
	xa, xb := x.AddNode(0), x.AddNode(1)
	for i := 0; i < 10; i++ {
		if net2.OneWay(a2, b2, 64) != x.OneWay(xa, xb, 64) {
			t.Fatal("same seed produced different jitter sequences")
		}
	}
}

func TestFastNetIsFasterThanDC(t *testing.T) {
	envF := sim.NewEnv(1)
	fast := New(envF, FastNet)
	fa, fb := fast.AddNode(0), fast.AddNode(1)
	envD := sim.NewEnv(1)
	slow := New(envD, DC2021)
	sa, sb := slow.AddNode(0), slow.AddNode(1)
	if fast.RTT(fa, fb) >= slow.RTT(sa, sb) {
		t.Errorf("FastNet RTT %v not faster than DC2021 %v", fast.RTT(fa, fb), slow.RTT(sa, sb))
	}
	// The paper's core claim: fast-network RTT (1µs) is far below web
	// service protocol overheads (~50µs).
	if fast.RTT(fa, fb) > 2*time.Microsecond {
		t.Errorf("FastNet cross-rack RTT = %v, want ~1µs", fast.RTT(fa, fb))
	}
}

func TestNodeRegistration(t *testing.T) {
	_, net := newNet(t, DC2021)
	a := net.AddNode(3)
	b := net.AddNode(7)
	if len(net.racks) != 2 {
		t.Errorf("Nodes = %d, want 2", len(net.racks))
	}
	if net.rack(a) != 3 || net.rack(b) != 7 {
		t.Errorf("racks = %d,%d want 3,7", net.rack(a), net.rack(b))
	}
	if net.rack(-1) != 0 || net.rack(b+1) != 0 {
		t.Errorf("unknown IDs read racks %d,%d, want 0,0", net.rack(-1), net.rack(b+1))
	}
	if a == b {
		t.Error("AddNode returned duplicate IDs")
	}
}

// Link faults injected through SetLinkFaultFunc: drops retransmit (extra
// latency, counted), duplicates double the traffic accounting, and delay
// spikes add their extra delay. Without a fault func, nothing changes.
func TestLinkFaultsShapeDelivery(t *testing.T) {
	env, net := newNet(t, DC2021)
	a, b := net.AddNode(0), net.AddNode(1)
	var fault LinkFault
	net.SetLinkFaultFunc(func(x, y NodeID, size int) LinkFault { return fault })

	deliver := func(lf LinkFault) time.Duration {
		fault = lf
		var took time.Duration
		env.Go("send", func(p *sim.Proc) {
			start := p.Now()
			net.Send(p, a, b, 1024)
			took = p.Now().Sub(start)
		})
		env.RunUntil(env.Now().Add(time.Second))
		return took
	}

	clean := deliver(LinkFault{})
	msgs, bytes := net.Msgs, net.Bytes

	dropped := deliver(LinkFault{Drop: true})
	if dropped <= clean {
		t.Errorf("dropped delivery took %v, want more than the clean %v (retransmit)", dropped, clean)
	}
	if net.Drops != 1 {
		t.Errorf("Drops = %d, want 1", net.Drops)
	}

	duped := deliver(LinkFault{Duplicate: true})
	if net.Dups != 1 {
		t.Errorf("Dups = %d, want 1", net.Dups)
	}
	if net.Msgs != msgs+3 || net.Bytes != bytes+3*1024 {
		// two sends since the snapshot, one of them duplicated
		t.Errorf("traffic after dup = %d msgs / %d bytes, want %d / %d",
			net.Msgs, net.Bytes, msgs+3, bytes+3*1024)
	}
	_ = duped

	// Per-send jitter means baselines differ between calls; the spike still
	// dominates any jittered base delay.
	spiked := deliver(LinkFault{ExtraDelay: 5 * time.Millisecond})
	if spiked < 5*time.Millisecond {
		t.Errorf("spiked delivery took %v, want ≥ the 5ms spike", spiked)
	}
	if net.Spikes != 1 {
		t.Errorf("Spikes = %d, want 1", net.Spikes)
	}
}

// Reachable defaults to true for every pair until a predicate is installed,
// and reverts when the predicate is removed.
func TestReachableDefaultsTrue(t *testing.T) {
	_, net := newNet(t, DC2021)
	a, b := net.AddNode(0), net.AddNode(1)
	if !net.Reachable(a, b) {
		t.Fatal("pair unreachable with no predicate installed")
	}
	net.SetReachableFunc(func(x, y NodeID) bool { return false })
	if net.Reachable(a, b) {
		t.Fatal("predicate ignored")
	}
	net.SetReachableFunc(nil)
	if !net.Reachable(a, b) {
		t.Fatal("removing the predicate did not restore reachability")
	}
}
