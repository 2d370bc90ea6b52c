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

// runSynthetic drives a small workload under an obs session: 60ms of
// healthy traffic, 80ms where every request fails, then 120ms healthy
// again. Returns the plane for assertions; the session is deactivated.
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

	s := obs.NewSession(obs.Config{Interval: 10 * time.Millisecond})
	pl := s.Attach(env, reg, "synthetic")
	pl.SetObjectives(obs.Objective{
		Name:       "goodput-floor",
		Goodput:    &obs.GoodputFloor{Served: "served", Failed: "failed"},
		Budget:     0.2,
		ShortTicks: 3,
		LongTicks:  6,
	})

	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 260; i++ {
			p.Sleep(time.Millisecond)
			now := int64(p.Now())
			util.Set(now, float64(i%4))
			if i >= 60 && i < 140 {
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
	// Healthy phase serves 1 op/ms = 1000/s. The first tick at t=10ms was
	// scheduled before the op landing exactly at 10ms, so its window sees
	// the 9 ops at 1..9ms — deterministically.
	if got := rate[0].V; got != 900 {
		t.Fatalf("first served rate = %v, want 900/s", got)
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
	// The bad phase spans [60ms, 140ms]; firing needs the long window's
	// mean burn over threshold, so it lands inside the phase, and the
	// resolve lands after it.
	if fire.At <= sim.Time(60*time.Millisecond) || fire.At > sim.Time(140*time.Millisecond) {
		t.Fatalf("fired at %v, want inside the bad phase", fire.At)
	}
	if resolve.At <= sim.Time(140*time.Millisecond) {
		t.Fatalf("resolved at %v, want after the bad phase", resolve.At)
	}
	if !pl.FiredBetween("goodput-floor", sim.Time(60*time.Millisecond), sim.Time(140*time.Millisecond)) {
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
	s := obs.NewSession(obs.Config{Interval: 10 * time.Millisecond})
	pl := s.Attach(env, reg, "lat")
	pl.SetObjectives(obs.Objective{
		Name:       "p99-slow",
		Latency:    &obs.LatencyTarget{Metric: "op_latency", Quantile: 0.99, Max: 5 * time.Millisecond},
		Budget:     0.5,
		ShortTicks: 2,
		LongTicks:  4,
	})
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			p.Sleep(time.Millisecond)
			d := time.Millisecond
			if i >= 40 {
				d = 50 * time.Millisecond // every window's p99 now violates
			}
			lat.Observe(d)
		}
	})
	env.Run()
	if pl.FireCount("p99-slow") != 1 {
		t.Fatalf("latency objective fires = %d, want 1 (alerts: %+v)", pl.FireCount("p99-slow"), pl.Alerts())
	}
}

func TestObjectiveEvaluationBounds(t *testing.T) {
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	failed := metrics.NewCounter("failed")
	reg.Register(metrics.NewCounter("served"))
	reg.Register(failed)
	s := obs.NewSession(obs.Config{Interval: 10 * time.Millisecond})
	pl := s.Attach(env, reg, "bounds")
	pl.SetObjectives(obs.Objective{
		Name:       "gated",
		Goodput:    &obs.GoodputFloor{Served: "served", Failed: "failed"},
		ShortTicks: 2,
		LongTicks:  4,
		After:      500 * time.Millisecond, // everything happens before this
	})
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
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
