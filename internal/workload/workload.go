// Package workload generates synthetic load for the experiments: arrival
// processes (Poisson, bursty) and Zipf-skewed object popularity. Each
// generator holds its own stream forked from the sim.Env seed
// (sim.Env.ForkRand), so experiments are reproducible by seed and a
// generator's draw sequence does not depend on what else runs in the
// environment.
package workload

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Arrivals yields successive inter-arrival gaps.
type Arrivals interface {
	// Next returns the gap before the next arrival.
	Next() time.Duration
}

// Poisson is an open-loop Poisson arrival process at a fixed mean rate.
type Poisson struct {
	rng  *rand.Rand
	rate float64 // arrivals per second
}

// NewPoisson returns a Poisson process at ratePerSec.
func NewPoisson(env *sim.Env, ratePerSec float64) *Poisson {
	return &Poisson{rng: env.ForkRand("workload.poisson"), rate: ratePerSec}
}

// Next implements Arrivals with exponential gaps.
func (p *Poisson) Next() time.Duration {
	if p.rate <= 0 {
		return time.Hour
	}
	gap := p.rng.ExpFloat64() / p.rate
	return time.Duration(gap * float64(time.Second))
}

// Bursty alternates between a base rate and burst-rate episodes.
type Bursty struct {
	rng        *rand.Rand
	base, peak *Poisson
	burstLen   time.Duration
	quietLen   time.Duration
	inBurst    bool
	phaseLeft  time.Duration
}

// NewBursty returns a process that runs at baseRate, jumping to peakRate
// for burstLen out of every burstLen+quietLen.
func NewBursty(env *sim.Env, baseRate, peakRate float64, burstLen, quietLen time.Duration) *Bursty {
	return &Bursty{
		rng:      env.ForkRand("workload.bursty"),
		base:     NewPoisson(env, baseRate),
		peak:     NewPoisson(env, peakRate),
		burstLen: burstLen, quietLen: quietLen,
		phaseLeft: quietLen,
	}
}

// Next implements Arrivals.
func (b *Bursty) Next() time.Duration {
	var gap time.Duration
	if b.inBurst {
		gap = b.peak.Next()
	} else {
		gap = b.base.Next()
	}
	b.phaseLeft -= gap
	for b.phaseLeft <= 0 {
		b.inBurst = !b.inBurst
		if b.inBurst {
			b.phaseLeft += b.burstLen
		} else {
			b.phaseLeft += b.quietLen
		}
	}
	return gap
}

// Zipf picks item indices in [0, n) with Zipfian skew; s > 1 sharpens the
// head. Used for object popularity.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf picker over n items with exponent s (s > 1).
func NewZipf(env *sim.Env, n uint64, s float64) *Zipf {
	return &Zipf{z: rand.NewZipf(env.ForkRand("workload.zipf"), s, 1, n-1)}
}

// Pick returns an item index; index 0 is the most popular.
func (z *Zipf) Pick() uint64 { return z.z.Uint64() }

// Run drives an open-loop workload: it spawns handler processes according
// to the arrival process until the end time. handler receives the arrival
// sequence number.
func Run(env *sim.Env, arr Arrivals, until sim.Time, handler func(p *sim.Proc, seq int)) {
	env.Go("workload", func(p *sim.Proc) {
		seq := 0
		for {
			gap := arr.Next()
			if p.Now().Add(gap) > until {
				return
			}
			p.Sleep(gap)
			seq++
			n := seq
			env.Go("req", func(rp *sim.Proc) { handler(rp, n) })
		}
	})
}
