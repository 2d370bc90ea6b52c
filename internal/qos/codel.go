package qos

import (
	"math"
	"time"

	"repro/internal/sim"
)

// coDelInterval is the sliding window over which the sojourn time must
// stay above target before the controller sheds.
const coDelInterval = 100 * time.Millisecond

// codel implements the CoDel (Controlled Delay, Nichols & Jacobson, CACM
// 2012) control law over queue sojourn times, adapted to admission
// queues: instead of dropping packets we shed queued requests with a
// typed overload error. The law is evaluated at dispatch time, so it is
// a deterministic function of virtual time — no randomness, no timers.
type codel struct {
	target sim.Duration // sojourn target; 0 disables the controller

	firstAbove sim.Time // when sojourn first exceeded target (0 = not above)
	dropping   bool     // in the shedding state
	dropNext   sim.Time // next scheduled shed while dropping
	count      int      // sheds in the current dropping episode
}

// onDispatch runs the control law for one dequeued request with the
// given sojourn time and reports whether the request should be shed.
func (c *codel) onDispatch(now sim.Time, sojourn sim.Duration) bool {
	if c.target <= 0 {
		return false
	}
	if sojourn < c.target {
		// Below target: leave the dropping state and reset the window.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if !c.dropping {
		if c.firstAbove == 0 {
			// First time above target: arm the interval window.
			c.firstAbove = now.Add(coDelInterval)
			return false
		}
		if now < c.firstAbove {
			return false
		}
		// Sojourn stayed above target for a full interval: start
		// shedding. Successive episodes shed faster (count memory).
		c.dropping = true
		if c.count > 2 {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlNext(now)
		return true
	}
	if now < c.dropNext {
		return false
	}
	// In the dropping state and the control-law deadline passed: shed
	// again, tightening the interval by 1/sqrt(count).
	c.count++
	c.dropNext = c.controlNext(c.dropNext)
	return true
}

// controlNext schedules the next shed at t + coDelInterval/sqrt(count).
func (c *codel) controlNext(t sim.Time) sim.Time {
	n := c.count
	if n < 1 {
		n = 1
	}
	return t.Add(sim.Duration(float64(coDelInterval) / math.Sqrt(float64(n))))
}
