// Package qos implements admission control and overload protection for the
// PCSI data plane and FaaS invocation path.
//
// The paper's §4 performance claim is that an explicit OS-style interface
// lets the provider schedule and isolate work predictably, where REST
// clouds expose only opaque throttling (429s) that clients answer with
// retries. This package is the scheduling half of that claim:
//
//   - Concurrency limits derived from cluster capacity ([Capacity]), so
//     admitted work never dives into the placement layer just to fail.
//   - One bounded FIFO queue per class with deadline-aware load shedding:
//     requests that would (or did) wait longer than the class's queue-delay
//     budget are rejected early with a typed [ErrOverload] that the retry
//     layer classifies as fatal — overload rejections are an answer, not a
//     transient, which kills retry storms at the source.
//   - CoDel-style queue-delay backpressure: when the standing queue delay
//     stays above target for a full interval, queued requests are shed at
//     increasing frequency until the queue drains to target.
//
// Every decision is a pure function of virtual time and deterministic
// arrival order — the same property as sim.Env.ObserverRand streams, only
// stronger: no randomness is consumed at all. A nil *Controller is fully
// inert: every method no-ops without touching the event queue, so a
// QoS-disabled run is byte-identical to one built before this package
// existed.
package qos

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrOverload is the sentinel all QoS rejections match via errors.Is. It
// implements the fault layer's Classified interface as non-retryable:
// shedding is load control, and a client that retries a shed re-offers
// the very load the system just refused.
var ErrOverload error = overloadSentinel{}

type overloadSentinel struct{}

func (overloadSentinel) Error() string   { return "qos: overloaded" }
func (overloadSentinel) Retryable() bool { return false }

// OverloadError is the typed rejection returned to shed requests. It
// matches ErrOverload under errors.Is and classifies as non-retryable.
type OverloadError struct {
	Class Class
	// Reason is "queue-full", "deadline", or "codel".
	Reason string
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("qos: overloaded (%s, class %s)", e.Reason, e.Class)
}

// Unwrap puts the ErrOverload sentinel in the chain, so errors.Is matches it.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// Retryable marks shed responses fatal for fault.Policy classification.
func (e *OverloadError) Retryable() bool { return false }

// Class separates the admission-controlled paths; each class has its own
// concurrency budget and queue, so data and invocation admission compose
// without double-counting.
type Class uint8

// The admission classes.
const (
	// ClassData gates data/meta operations on the PCSI client.
	ClassData Class = iota
	// ClassInvoke gates function invocations in the FaaS runtime.
	ClassInvoke
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassInvoke:
		return "invoke"
	default:
		// Admission tracing stringifies the class per shed/queue span, so
		// avoid the fmt machinery on this path.
		return "class(" + strconv.Itoa(int(c)) + ")"
	}
}

// ClassConfig tunes one admission class. A zero-value class is disabled:
// Admit passes through with no queueing and no bookkeeping.
type ClassConfig struct {
	// MaxConcurrency is the number of operations admitted concurrently.
	// When 0 and PerOp is set, it is derived from cluster capacity at
	// construction ([Capacity]).
	MaxConcurrency int
	// PerOp is the resource footprint one admitted operation occupies,
	// used to derive MaxConcurrency from the cluster.
	PerOp cluster.Resources
	// MaxQueue bounds the class's queue; arrivals beyond it are shed
	// with reason "queue-full". 0 = unbounded.
	MaxQueue int
	// MaxQueueDelay is the queue-delay budget: arrivals whose estimated
	// wait exceeds it are shed on arrival, and queued requests that have
	// already waited longer are shed at dispatch (reason "deadline").
	// 0 = no deadline shedding.
	MaxQueueDelay sim.Duration
	// CoDelTarget enables CoDel-style backpressure: when the delay of
	// dispatched requests stays above the target for a full CoDelInterval,
	// queued requests are shed (reason "codel") at increasing frequency
	// until the standing queue drains. 0 = off.
	CoDelTarget sim.Duration
	// CoDelInterval is the CoDel control interval (default 100ms).
	CoDelInterval sim.Duration
}

// Config configures a Controller.
type Config struct {
	// Data and Invoke configure the two admission classes.
	Data, Invoke ClassConfig
}

// Stats is a snapshot of one class's admission counters.
type Stats struct {
	Admitted      int64
	Shed          int64
	ShedQueueFull int64
	ShedDeadline  int64
	ShedCoDel     int64
	MaxQueued     int
}

// Controller is the admission-control plane of one deployment. A nil
// Controller is valid and fully inert.
type Controller struct {
	env     *sim.Env
	classes [numClasses]*classQ
	onShed  func(label, reason string)
}

// waiter is one queued admission request.
type waiter struct {
	ev  *sim.Event
	enq sim.Time
}

// classQ is the admission state of one class: its slots and its FIFO queue.
type classQ struct {
	class    Class
	label    string // "qos_<class>": the prefix of every metric of the class
	cfg      ClassConfig
	limit    int
	inflight int
	q        []waiter
	free     []*sim.Event // completed waiter events, re-armed for reuse
	cd       codel
	// ewmaServiceNS estimates per-operation service time for the
	// arrival-time wait estimate (deadline-aware early rejection).
	ewmaServiceNS float64
	stats         Stats

	// depthGauge and inflightGauge track queued and admitted-not-released
	// requests over time; delayHist observes each admission's wait.
	depthGauge, inflightGauge *metrics.Gauge
	delayHist                 *metrics.Histogram
	admitted, shed            *metrics.Counter
}

// New builds a Controller over env. Classes whose resolved concurrency
// limit is zero stay disabled. cl (may be nil) supplies the capacity that
// PerOp-configured classes derive their limits from. Each enabled class
// registers its metrics in reg (which may be nil): qos_<class>_queue_depth,
// _inflight, _queue_delay, _admitted and _shed.
func New(env *sim.Env, cl *cluster.Cluster, cfg Config, reg *trace.Registry) *Controller {
	q := &Controller{env: env}
	for class, cc := range [numClasses]ClassConfig{ClassData: cfg.Data, ClassInvoke: cfg.Invoke} {
		limit := cc.MaxConcurrency
		if limit == 0 && cl != nil {
			limit = Capacity(cl, cc.PerOp)
		}
		if limit <= 0 {
			continue
		}
		if cc.CoDelTarget > 0 && cc.CoDelInterval <= 0 {
			cc.CoDelInterval = 100 * sim.Duration(1e6) // 100ms
		}
		label := "qos_" + Class(class).String()
		c := &classQ{
			class:         Class(class),
			label:         label,
			cfg:           cc,
			limit:         limit,
			cd:            codel{target: cc.CoDelTarget, interval: cc.CoDelInterval},
			depthGauge:    metrics.NewGauge(label + "_queue_depth"),
			inflightGauge: metrics.NewGauge(label + "_inflight"),
			delayHist:     metrics.NewHistogram(label + "_queue_delay"),
			admitted:      metrics.NewCounter(label + "_admitted"),
			shed:          metrics.NewCounter(label + "_shed"),
		}
		reg.Register(c.depthGauge)
		reg.Register(c.inflightGauge)
		reg.Register(c.delayHist)
		reg.Register(c.admitted)
		reg.Register(c.shed)
		q.classes[class] = c
	}
	return q
}

// OnShed installs fn, called after every shed with the class's metric
// prefix ("qos_<class>") and the reason — the hook the flight recorder uses
// without qos importing the telemetry plane. No-op on a nil controller.
func (q *Controller) OnShed(fn func(label, reason string)) {
	if q != nil {
		q.onShed = fn
	}
}

// Capacity returns how many operations of footprint res the cluster can
// host concurrently, summing each node's bottleneck dimension. A zero
// footprint (or cluster) yields 0 — callers must state what one admitted
// operation costs before a limit can be derived.
func Capacity(cl *cluster.Cluster, res cluster.Resources) int {
	if cl == nil {
		return 0
	}
	total := 0
	for _, n := range cl.Nodes() {
		per := math.MaxInt
		counted := false
		if res.MilliCPU > 0 {
			per = minInt(per, int(n.Cap.MilliCPU/res.MilliCPU))
			counted = true
		}
		if res.MemMB > 0 {
			per = minInt(per, int(n.Cap.MemMB/res.MemMB))
			counted = true
		}
		if res.GPUs > 0 {
			per = minInt(per, int(n.Cap.GPUs/res.GPUs))
			counted = true
		}
		if counted {
			total += per
		}
	}
	return total
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Enabled reports whether the class admits under control. A nil
// controller (and a zero-limit class) reports false.
func (q *Controller) Enabled(class Class) bool {
	return q != nil && class < numClasses && q.classes[class] != nil
}

// ClassStats snapshots a class's admission counters.
func (q *Controller) ClassStats(class Class) Stats {
	if !q.Enabled(class) {
		return Stats{}
	}
	return q.classes[class].stats
}

// Grant is an admitted operation's token; Release it when the operation
// completes. The zero Grant (returned by pass-through admissions) releases
// as a no-op.
type Grant struct {
	q       *Controller
	c       *classQ
	admitAt sim.Time
}

// Admit runs the admission gate for one operation of the class, parking the
// calling process at the tail of the class's queue while the class is at
// its concurrency limit. It returns an error matching ErrOverload when the
// request is shed (queue full, deadline exceeded, or CoDel backpressure).
// On nil controllers and disabled classes it admits immediately with zero
// overhead.
func (q *Controller) Admit(p *sim.Proc, class Class) (Grant, error) {
	if q == nil || class >= numClasses {
		return Grant{}, nil
	}
	c := q.classes[class]
	if c == nil {
		return Grant{}, nil
	}
	now := q.env.Now()

	// Fast path: free slot and empty queue — admit without parking.
	if len(c.q) == 0 && c.inflight < c.limit {
		return q.admitNow(c, now, 0), nil
	}

	if c.cfg.MaxQueue > 0 && len(c.q) >= c.cfg.MaxQueue {
		return Grant{}, q.shed(c, "queue-full")
	}
	if c.cfg.MaxQueueDelay > 0 && c.estWait() > c.cfg.MaxQueueDelay {
		return Grant{}, q.shed(c, "deadline")
	}

	w := waiter{enq: now}
	if n := len(c.free); n > 0 {
		w.ev = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w.ev = q.env.NewEvent()
	}
	c.q = append(c.q, w)
	if len(c.q) > c.stats.MaxQueued {
		c.stats.MaxQueued = len(c.q)
	}
	c.depthGauge.Add(int64(now), 1)

	sp := trace.Of(q.env).Start(p, "qos", "queue", trace.Str("class", c.class.String()))
	q.dispatch(c)
	_, err := p.Wait(w.ev)
	sp.Close(p)
	w.ev.Reset() // dispatch dropped it from the queue before completing it
	c.free = append(c.free, w.ev)
	if err != nil {
		return Grant{}, err
	}
	return Grant{q: q, c: c, admitAt: q.env.Now()}, nil
}

// Release returns the operation's concurrency slot and dispatches queued
// work. Safe on the zero Grant.
func (g Grant) Release() {
	if g.c == nil {
		return
	}
	now := g.q.env.Now()
	c := g.c
	c.inflight--
	c.inflightGauge.Add(int64(now), -1)
	// Deterministic EWMA of observed service time feeds the arrival-time
	// wait estimate.
	const alpha = 0.2
	s := float64(now.Sub(g.admitAt))
	if c.ewmaServiceNS == 0 {
		c.ewmaServiceNS = s
	} else {
		c.ewmaServiceNS += alpha * (s - c.ewmaServiceNS)
	}
	g.q.dispatch(c)
}

// admitNow books an in-flight slot at time now.
func (q *Controller) admitNow(c *classQ, now sim.Time, delay sim.Duration) Grant {
	c.inflight++
	c.stats.Admitted++
	c.admitted.Inc()
	c.inflightGauge.Add(int64(now), 1)
	c.delayHist.Observe(delay)
	return Grant{q: q, c: c, admitAt: now}
}

// dispatch admits queued requests in arrival order while slots are free,
// applying deadline and CoDel shedding to the queue head.
func (q *Controller) dispatch(c *classQ) {
	now := q.env.Now()
	for c.inflight < c.limit && len(c.q) > 0 {
		w := c.q[0]
		c.q[0] = waiter{}
		if len(c.q) == 1 {
			c.q = c.q[:0] // a drained queue keeps its backing array
		} else {
			c.q = c.q[1:]
		}
		c.depthGauge.Add(int64(now), -1)
		sojourn := now.Sub(w.enq)
		if c.cfg.MaxQueueDelay > 0 && sojourn > c.cfg.MaxQueueDelay {
			w.ev.Fail(q.shed(c, "deadline"))
			continue
		}
		if c.cd.onDispatch(now, sojourn) {
			w.ev.Fail(q.shed(c, "codel"))
			continue
		}
		// The grant travels back through Admit's own return, not the
		// completion value; completing with nil avoids boxing a Grant
		// into the event's any slot on every dispatch.
		q.admitNow(c, now, sojourn)
		w.ev.Complete(nil)
	}
}

// estWait estimates a new arrival's queueing delay from the current
// backlog and the observed service rate.
func (c *classQ) estWait() sim.Duration {
	if c.ewmaServiceNS == 0 {
		return 0
	}
	return sim.Duration(float64(len(c.q)+1) * c.ewmaServiceNS / float64(c.limit))
}

// shed records one rejection, at arrival or of a queued request, and returns
// the error the shed request sees.
func (q *Controller) shed(c *classQ, reason string) error {
	c.stats.Shed++
	switch reason {
	case "queue-full":
		c.stats.ShedQueueFull++
	case "deadline":
		c.stats.ShedDeadline++
	case "codel":
		c.stats.ShedCoDel++
	}
	c.shed.Inc()
	if q.onShed != nil {
		q.onShed(c.label, reason)
	}
	trace.Of(q.env).Instant("qos", "qos", "shed",
		trace.Str("class", c.class.String()), trace.Str("reason", reason))
	return &OverloadError{Class: c.class, Reason: reason}
}
