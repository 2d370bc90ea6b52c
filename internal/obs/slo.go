package obs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Objective is one declarative SLO. Exactly one of Latency, Goodput, or
// Shed must be set; the others parameterise Google-SRE-style multi-window
// burn-rate alerting: each sampler tick is scored with a bad-event
// fraction, the fraction is divided by the error Budget to get a burn
// rate, and the alert fires when both the mean burn over the last 5 ticks
// (250 ms) and over the last 20 ticks (1 s) reach 1 — the short window
// gives fast detection, the long window keeps one bad tick from paging.
type Objective struct {
	Name string

	Latency *LatencyTarget
	Goodput *GoodputFloor
	Shed    *ShedCeiling

	Budget float64 // allowed bad fraction per tick; 0 = 0.1

	// After/Until bound evaluation in virtual time (measured from the
	// epoch), so warm-up and drain phases do not burn budget. Zero Until
	// means forever.
	After sim.Duration
	Until sim.Duration
}

// The burn-rate alert: it fires when the mean burn over both windows, in
// sampler ticks, reaches burnThreshold.
const (
	burnThreshold = 1
	shortTicks    = 5
	longTicks     = 20
)

// LatencyTarget scores a tick bad (fraction 1) when the Metric histogram's
// windowed p99 exceeds Max. Ticks with an empty window score 0.
type LatencyTarget struct {
	Metric string // histogram name in the registry
	Max    sim.Duration
}

// GoodputFloor scores a tick by the failure share failed/(served+failed),
// using the per-tick window counts of the two named metrics (histogram
// window count or counter delta). Typed sheds are deliberately not
// failures — a shed is an answer.
type GoodputFloor struct {
	Served string
	Failed string
}

// ShedCeiling scores a tick by the shed share shed/(shed+base) of the two
// named metrics' per-tick deltas — the budget is the tolerable shed share.
type ShedCeiling struct {
	Shed string
	Base string
}

// Target renders the objective's target as a human-readable phrase for
// dashboards and reports.
func (o Objective) Target() string {
	switch {
	case o.Latency != nil:
		return fmt.Sprintf("p99(%s) <= %s within [%s, %s]",
			o.Latency.Metric, o.Latency.Max, o.After, untilStr(o.Until))
	case o.Goodput != nil:
		return fmt.Sprintf("failure share %s/(%s+%s) <= %g%%",
			o.Goodput.Failed, o.Goodput.Served, o.Goodput.Failed, o.budget()*100)
	case o.Shed != nil:
		return fmt.Sprintf("shed share %s/(%s+%s) <= %g%%",
			o.Shed.Shed, o.Shed.Shed, o.Shed.Base, o.budget()*100)
	}
	return "(no target)"
}

func untilStr(d sim.Duration) string {
	if d == 0 {
		return "end"
	}
	return d.String()
}

func (o Objective) budget() float64 {
	if o.Budget > 0 {
		return o.Budget
	}
	return 0.1
}

// Alert is one burn-rate alert transition. Fire and resolve instants are
// also emitted into the trace (category "obs.slo") and the flight
// recorder.
type Alert struct {
	At        sim.Time
	Objective string
	Kind      string // "fire" | "resolve"
	ShortBurn float64
	LongBurn  float64
}

// objectiveState is the per-plane evaluation state of one objective: a
// circular buffer of per-tick burn rates over the long window.
type objectiveState struct {
	obj    Objective
	burns  [longTicks]float64
	idx    int
	n      int
	firing bool
}

// SetObjectives replaces the plane's objective set. Call before the first
// sampler tick (objectives installed mid-run would see a truncated burn
// history). Safe on a nil plane.
func (pl *Plane) SetObjectives(objs ...Objective) {
	if pl == nil {
		return
	}
	pl.objectives = pl.objectives[:0]
	for _, o := range objs {
		pl.objectives = append(pl.objectives, &objectiveState{obj: o})
	}
}

// Objectives returns the plane's objectives in installation order.
func (pl *Plane) Objectives() []Objective {
	if pl == nil {
		return nil
	}
	out := make([]Objective, 0, len(pl.objectives))
	for _, st := range pl.objectives {
		out = append(out, st.obj)
	}
	return out
}

// Alerts returns every alert transition so far, in virtual-time order.
func (pl *Plane) Alerts() []Alert {
	if pl == nil {
		return nil
	}
	return pl.alerts
}

// FireCount returns the number of "fire" transitions for the named
// objective ("" counts every objective).
func (pl *Plane) FireCount(objective string) int {
	n := 0
	for _, a := range pl.Alerts() {
		if a.Kind == "fire" && (objective == "" || a.Objective == objective) {
			n++
		}
	}
	return n
}

// FiredBetween reports whether the named objective fired in [from, to].
func (pl *Plane) FiredBetween(objective string, from, to sim.Time) bool {
	for _, a := range pl.Alerts() {
		if a.Kind == "fire" && a.Objective == objective && a.At >= from && a.At <= to {
			return true
		}
	}
	return false
}

// evaluate scores every objective against the tick just sampled and
// records fire/resolve transitions.
func (pl *Plane) evaluate(now sim.Time) {
	for _, st := range pl.objectives {
		burn := st.obj.badFraction(pl, now) / st.obj.budget()
		st.burns[st.idx] = burn
		st.idx = (st.idx + 1) % len(st.burns)
		st.n++
		// Both windows must exceed the threshold, and the long window must
		// be fully populated — otherwise a single early bad tick would
		// dominate a mostly-empty average and page during warm-up.
		firing := st.n >= longTicks &&
			st.avg(shortTicks) >= burnThreshold &&
			st.avg(longTicks) >= burnThreshold
		if firing != st.firing {
			st.firing = firing
			kind := "resolve"
			if firing {
				kind = "fire"
			}
			a := Alert{
				At:        now,
				Objective: st.obj.Name,
				Kind:      kind,
				ShortBurn: st.avg(shortTicks),
				LongBurn:  st.avg(longTicks),
			}
			pl.alerts = append(pl.alerts, a)
			detail := fmt.Sprintf("burn short=%.2f long=%.2f", a.ShortBurn, a.LongBurn)
			pl.Record("alert", kind+":"+st.obj.Name, detail)
			trace.Of(pl.env).Instant("obs", "obs.slo", "slo:"+st.obj.Name+":"+kind,
				trace.Str("detail", detail))
		}
	}
}

// avg returns the mean burn over the last w ticks (w <= len(burns)).
func (st *objectiveState) avg(w int) float64 {
	if st.n < w {
		w = st.n
	}
	if w == 0 {
		return 0
	}
	sum := 0.0
	for i := 1; i <= w; i++ {
		sum += st.burns[(st.idx-i+len(st.burns))%len(st.burns)]
	}
	return sum / float64(w)
}

// badFraction scores the tick just sampled in [0, 1].
func (o Objective) badFraction(pl *Plane, now sim.Time) float64 {
	if now < sim.Time(o.After) {
		return 0
	}
	if o.Until > 0 && now > sim.Time(o.Until) {
		return 0
	}
	switch {
	case o.Latency != nil:
		win, ok := pl.lastWindow[o.Latency.Metric]
		if !ok || win.Total == 0 {
			return 0
		}
		if win.P99() > o.Latency.Max {
			return 1
		}
		return 0
	case o.Goodput != nil:
		served := pl.lastDelta[o.Goodput.Served]
		failed := pl.lastDelta[o.Goodput.Failed]
		if served+failed == 0 {
			return 0
		}
		return failed / (served + failed)
	case o.Shed != nil:
		shed := pl.lastDelta[o.Shed.Shed]
		base := pl.lastDelta[o.Shed.Base]
		if shed+base == 0 {
			return 0
		}
		return shed / (shed + base)
	}
	return 0
}
