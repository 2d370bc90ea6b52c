// Package workload generates synthetic load for the experiments: arrival
// processes (Poisson, bursty, diurnal), Zipf-skewed object popularity, and
// size distributions. Each generator holds its own stream forked from the
// sim.Env seed (sim.Env.ForkRand), so experiments are reproducible by seed
// and a generator's draw sequence does not depend on what else runs in the
// environment.
package workload

import (
	"math"
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

// Diurnal modulates a Poisson process sinusoidally over a period,
// approximating day/night load swings; rate varies between low and high.
type Diurnal struct {
	rng       *rand.Rand
	env       *sim.Env
	low, high float64
	period    time.Duration
}

// NewDiurnal returns a diurnal process.
func NewDiurnal(env *sim.Env, lowRate, highRate float64, period time.Duration) *Diurnal {
	return &Diurnal{rng: env.ForkRand("workload.diurnal"), env: env, low: lowRate, high: highRate, period: period}
}

// RateAt returns the instantaneous rate at virtual time t.
func (d *Diurnal) RateAt(t sim.Time) float64 {
	phase := 2 * math.Pi * float64(t) / float64(d.period)
	return d.low + (d.high-d.low)*(1+math.Sin(phase))/2
}

// Next implements Arrivals using the rate at the current virtual time.
func (d *Diurnal) Next() time.Duration {
	r := d.RateAt(d.env.Now())
	if r <= 0 {
		return d.period / 100
	}
	gap := d.rng.ExpFloat64() / r
	return time.Duration(gap * float64(time.Second))
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

// FixedSize always returns the same size.
type FixedSize int

// Next returns the next payload size in bytes.
func (f FixedSize) Next() int { return int(f) }

// LogNormalSizes draws sizes from a log-normal distribution (the shape of
// real object-store traces), clamped to [min, max].
type LogNormalSizes struct {
	rng      *rand.Rand
	mu       float64 // log-space mean
	sigma    float64
	min, max int
}

// NewLogNormalSizes returns a log-normal size distribution with the given
// median and sigma (log-space), clamped to [min, max].
func NewLogNormalSizes(env *sim.Env, median int, sigma float64, min, max int) *LogNormalSizes {
	return &LogNormalSizes{rng: env.ForkRand("workload.sizes"), mu: math.Log(float64(median)), sigma: sigma, min: min, max: max}
}

// Next returns the next payload size in bytes.
func (l *LogNormalSizes) Next() int {
	v := math.Exp(l.mu + l.sigma*l.rng.NormFloat64())
	n := int(v)
	if n < l.min {
		n = l.min
	}
	if n > l.max {
		n = l.max
	}
	return n
}

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
