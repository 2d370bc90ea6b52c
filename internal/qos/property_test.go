package qos

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// TestPropertyShedRateMonotone: for any queue/deadline configuration,
// pushing a deterministic open-loop arrival ladder at increasing offered
// load never decreases the number of sheds — overload protection responds
// monotonically to pressure.
func TestPropertyShedRateMonotone(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 30,
		Rand:     rand.New(rand.NewSource(11)),
	}
	prop := func(rawLimit, rawQueue uint8) bool {
		limit := 1 + int(rawLimit)%4    // 1..4 concurrent ops
		maxQueue := 1 + int(rawQueue)%8 // 1..8 queued
		const service = 10 * time.Millisecond
		// Capacity of the class in requests/sec.
		capacity := float64(limit) / service.Seconds()
		prevShed := int64(-1)
		for _, factor := range []float64{0.5, 1, 2, 4} {
			env := sim.NewEnv(1)
			q := testController(env, ClassConfig{
				MaxConcurrency: limit,
				MaxQueue:       maxQueue,
			})
			rate := capacity * factor
			gap := sim.Duration(float64(time.Second) / rate)
			window := 500 * time.Millisecond
			n := int(float64(window) / float64(gap))
			for i := 0; i < n; i++ {
				i := i
				env.Go("arrival", func(p *sim.Proc) {
					p.Sleep(sim.Duration(i) * gap) // uniform open-loop arrivals
					g, err := q.Admit(p, ClassInvoke)
					if err != nil {
						return
					}
					p.Sleep(service)
					g.Release()
				})
			}
			env.Run()
			shed := q.ClassStats(ClassInvoke).Shed
			if shed < prevShed {
				t.Logf("limit=%d queue=%d: shed %d at %.1fx after %d at lower load",
					limit, maxQueue, shed, factor, prevShed)
				return false
			}
			prevShed = shed
		}
		return prevShed > 0 // 4x offered load must shed something
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
