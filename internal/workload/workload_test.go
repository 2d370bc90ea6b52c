package workload

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPoissonMeanRate(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPoisson(env, 100) // 100/s
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.Next()
	}
	mean := total / n
	want := 10 * time.Millisecond
	if mean < want*9/10 || mean > want*11/10 {
		t.Errorf("mean gap = %v, want ~%v", mean, want)
	}
}

func TestPoissonZeroRate(t *testing.T) {
	env := sim.NewEnv(1)
	p := NewPoisson(env, 0)
	if p.Next() <= 0 {
		t.Error("zero-rate process returned non-positive gap")
	}
}

func TestPoissonDeterministicBySeed(t *testing.T) {
	a := NewPoisson(sim.NewEnv(7), 50)
	b := NewPoisson(sim.NewEnv(7), 50)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBurstyAlternates(t *testing.T) {
	env := sim.NewEnv(2)
	b := NewBursty(env, 10, 1000, time.Second, time.Second)
	// Count arrivals over simulated phases: burst phases must be much
	// denser.
	var gaps []time.Duration
	var total time.Duration
	for total < 10*time.Second {
		g := b.Next()
		gaps = append(gaps, g)
		total += g
	}
	// Average rate should land between base and peak.
	rate := float64(len(gaps)) / total.Seconds()
	if rate < 20 || rate > 900 {
		t.Errorf("overall rate = %.1f/s, want between base and peak", rate)
	}
}

func TestZipfSkew(t *testing.T) {
	env := sim.NewEnv(4)
	z := NewZipf(env, 1000, 1.2)
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Pick()]++
	}
	// Head item should dominate the 100th item by a wide margin.
	if counts[0] < 10*counts[100]+1 {
		t.Errorf("head %d vs item-100 %d: insufficient skew", counts[0], counts[100])
	}
}

func TestRunDrivesHandlers(t *testing.T) {
	env := sim.NewEnv(6)
	p := NewPoisson(env, 1000) // ~1000/s for 1s ⇒ ~1000 arrivals
	count := 0
	var last sim.Time
	Run(env, p, sim.Time(time.Second), func(proc *sim.Proc, seq int) {
		count++
		last = proc.Now()
	})
	env.Run()
	if count < 800 || count > 1200 {
		t.Errorf("arrivals = %d, want ~1000", count)
	}
	if last > sim.Time(time.Second) {
		t.Errorf("arrival after end time: %v", last)
	}
}

func TestRunRespectsEndTime(t *testing.T) {
	env := sim.NewEnv(7)
	p := NewPoisson(env, 10)
	count := 0
	Run(env, p, 0, func(proc *sim.Proc, seq int) { count++ })
	env.Run()
	if count != 0 {
		t.Errorf("arrivals = %d with zero window", count)
	}
}
