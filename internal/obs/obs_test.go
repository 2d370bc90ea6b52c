package obs_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The synthetic workload issues one request every 5 ms for 3.5 s, ten per
// 50 ms sampler tick. Every request fails during a two-tick blip and during
// an eight-tick bad phase; the rest are healthy.
const (
	blipStart, blipEnd = 1100 * time.Millisecond, 1200 * time.Millisecond
	badStart, badEnd   = 2300 * time.Millisecond, 2700 * time.Millisecond
	tick               = 50 * time.Millisecond
)

// runSynthetic drives the synthetic workload under an obs session with a
// goodput objective at budget 0.2, so a failing tick burns 5. Returns the
// plane for assertions.
func runSynthetic(t *testing.T, seed int64) (*obs.Plane, *obs.Session) {
	t.Helper()
	env := sim.NewEnv(seed)
	reg := trace.NewRegistry()
	served := metrics.NewCounter("served")
	failed := metrics.NewCounter("failed")
	lat := metrics.NewHistogram("op_latency")
	util := metrics.NewGauge("util")
	reg.Register(served)
	reg.Register(failed)
	reg.Register(lat)
	reg.Register(util)

	s := obs.NewSession(obs.Config{})
	pl := s.Attach(env, reg, "synthetic")
	pl.SetObjectives(obs.Objective{
		Name:    "goodput-floor",
		Goodput: &obs.GoodputFloor{Served: "served", Failed: "failed"},
		Budget:  0.2,
	})

	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 700; i++ {
			p.Sleep(5 * time.Millisecond)
			now := p.Now().Sub(0)
			util.Set(int64(now), float64(i%4))
			if now >= blipStart && now < blipEnd || now >= badStart && now < badEnd {
				failed.Inc()
				pl.Record("fault", "op", "injected failure")
				continue
			}
			served.Inc()
			lat.Observe(time.Duration(1+i%5) * time.Millisecond)
		}
	})
	env.Run()
	return pl, s
}

func TestSamplerSeriesAndTermination(t *testing.T) {
	pl, _ := runSynthetic(t, 1)
	// env.Run returned, so the sampler did not livelock the drain.
	rate := pl.SeriesData("served", "rate")
	if len(rate) == 0 {
		t.Fatal("no rate series for served counter")
	}
	// Healthy phase serves 1 op/5ms = 200/s. The first tick at t=50ms was
	// scheduled before the op landing exactly at 50ms, so its window sees
	// the 9 ops at 5..45ms — deterministically.
	if got := rate[0].V; got != 180 {
		t.Fatalf("first served rate = %v, want 180/s", got)
	}
	if pts := pl.SeriesData("util", "level"); len(pts) == 0 {
		t.Fatal("no level series for gauge")
	}
	for _, stat := range []string{"rate", "p50", "p95", "p99"} {
		if pts := pl.SeriesData("op_latency", stat); len(pts) == 0 {
			t.Fatalf("no %s series for histogram", stat)
		}
	}
	if got := pl.SeriesData("op_latency", "p99"); got[0].V <= 0 {
		t.Fatalf("p99 series starts at %v, want > 0", got[0].V)
	}
}

// The alert needs both windows: the two-tick blip reaches the short
// window's threshold but not the long one's, so it never pages; the bad
// phase fires once four of the long window's 20 ticks burn (4×5/20 = 1),
// and resolves once the short window's 5 ticks are healthy again.
func TestBurnRateFiresAndResolves(t *testing.T) {
	pl, _ := runSynthetic(t, 1)
	alerts := pl.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want exactly one fire and one resolve", alerts)
	}
	fire, resolve := alerts[0], alerts[1]
	if fire.Kind != "fire" || resolve.Kind != "resolve" {
		t.Fatalf("alert kinds = %s, %s", fire.Kind, resolve.Kind)
	}
	at := func(d time.Duration) sim.Time { return sim.Time(0).Add(d) }
	if fire.At < at(badStart+4*tick) || fire.At >= at(badEnd) {
		t.Fatalf("fired at %v, want inside the bad phase, from its fourth tick", fire.At)
	}
	if resolve.At <= at(badEnd) || resolve.At > at(badEnd+5*tick) {
		t.Fatalf("resolved at %v, want within the short window after the bad phase", resolve.At)
	}
	if !pl.FiredBetween("goodput-floor", at(badStart), at(badEnd)) {
		t.Fatal("FiredBetween misses the fire")
	}
	if pl.FireCount("goodput-floor") != 1 || pl.FireCount("") != 1 {
		t.Fatal("FireCount wrong")
	}
	if fire.ShortBurn < 1 || fire.LongBurn < 1 {
		t.Fatalf("burns at fire = %v/%v, want >= threshold", fire.ShortBurn, fire.LongBurn)
	}
}

func TestLatencyObjective(t *testing.T) {
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	lat := metrics.NewHistogram("op_latency")
	reg.Register(lat)
	s := obs.NewSession(obs.Config{})
	pl := s.Attach(env, reg, "lat")
	pl.SetObjectives(obs.Objective{
		Name:    "p99-slow",
		Latency: &obs.LatencyTarget{Metric: "op_latency", Max: 5 * time.Millisecond},
		Budget:  0.5,
	})
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 3000; i++ {
			p.Sleep(time.Millisecond)
			d := time.Millisecond
			if i >= 1500 && i%25 == 0 {
				// 2 of each tick's 50 ops are slow: the window's p99
				// violates, its p95 does not.
				d = 50 * time.Millisecond
			}
			lat.Observe(d)
		}
	})
	env.Run()
	if pl.FireCount("p99-slow") != 1 {
		t.Fatalf("latency objective fires = %d, want 1 (alerts: %+v)", pl.FireCount("p99-slow"), pl.Alerts())
	}
	// A bad tick burns 1/0.5 = 2, so the long window reaches 1 on the
	// tenth bad tick.
	if at := pl.Alerts()[0].At; at < sim.Time(0).Add(2000*time.Millisecond) || at > sim.Time(0).Add(2050*time.Millisecond) {
		t.Errorf("latency objective fired at %v, want at the tenth bad tick (2s)", at)
	}
}

func TestObjectiveEvaluationBounds(t *testing.T) {
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	failed := metrics.NewCounter("failed")
	reg.Register(metrics.NewCounter("served"))
	reg.Register(failed)
	s := obs.NewSession(obs.Config{})
	pl := s.Attach(env, reg, "bounds")
	pl.SetObjectives(obs.Objective{
		Name:    "gated",
		Goodput: &obs.GoodputFloor{Served: "served", Failed: "failed"},
		After:   2 * time.Second, // everything happens before this
	})
	// 1.5 s of failures: without After the objective would fire once the
	// long window fills, at 1 s.
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 1500; i++ {
			p.Sleep(time.Millisecond)
			failed.Inc()
		}
	})
	env.Run()
	if n := pl.FireCount(""); n != 0 {
		t.Fatalf("objective fired %d time(s) outside its evaluation window", n)
	}
}

func TestTimelineRendersDeterministically(t *testing.T) {
	render := func() (string, string) {
		pl, s := runSynthetic(t, 7)
		_ = pl
		tl := s.Timeline("SYN", 7)
		var j, h bytes.Buffer
		if err := tl.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := tl.WriteHTML(&h); err != nil {
			t.Fatal(err)
		}
		return j.String(), h.String()
	}
	j1, h1 := render()
	j2, h2 := render()
	if j1 != j2 {
		t.Fatal("timeline JSON not byte-identical across identical runs")
	}
	if h1 != h2 {
		t.Fatal("dashboard HTML not byte-identical across identical runs")
	}
	for _, want := range []string{"goodput-floor", "served", "fired", "flight recorder"} {
		if !strings.Contains(h1, want) {
			t.Errorf("dashboard HTML missing %q", want)
		}
	}
	if !strings.Contains(j1, "\"objective\": \"goodput-floor\"") {
		t.Error("timeline JSON missing alert entry")
	}
}

func TestAttachIdempotentAndNilSafe(t *testing.T) {
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	s := obs.NewSession(obs.Config{})
	if p1, p2 := s.Attach(env, reg, "a"), s.Attach(env, reg, "b"); p1 != p2 {
		t.Fatal("second Attach on the same env must return the existing plane")
	}
	var none *obs.Session
	if pl := none.Attach(env, reg, "x"); pl != nil {
		t.Fatal("nil session must return a nil plane")
	}
	var pl *obs.Plane
	pl.Record("k", "n", "d") // must not panic
	if pl.SeriesList() != nil || pl.Alerts() != nil {
		t.Fatal("nil plane accessors must be inert")
	}
}
