// Package obs is the deterministic virtual-time telemetry plane: a
// time-series sampler over the metric registry, SLO objectives with
// multi-window burn-rate alerting, and a bounded flight recorder for
// post-mortem dumps.
//
// The operating settings are the plane's, not the caller's: every plane
// samples once per 50 ms tick, a latency objective reads each tick's p99,
// and an objective alerts when its mean burn rate over both the last 5
// and the last 20 ticks reaches 1.
//
// Everything runs inside the simulation's own clock. A sampler tick is an
// engine-context callback scheduled with sim.Env.After, so sampling
// consumes no randomness (neither Env.Rand nor ForkRand is ever touched),
// reads metrics without mutating them, and reschedules itself only while
// the environment still has foreign events pending — an attached plane
// therefore never keeps a drain alive and never changes the order or
// content of workload events. A cloud built without a Session has a nil
// Plane, so the package costs one nil check per call site, and every output
// it produces is a pure function of (seed, workload), byte-identical across
// re-runs.
//
// Layering: obs may import only internal/sim, internal/metrics, and
// internal/trace (the layering analyzer enforces this). Like the tracer and
// the fault injector, a plane is found through its environment's observer
// slot, never through package state.
package obs

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tickInterval is every plane's sampling period: one tick per 50 ms of
// virtual time.
const tickInterval = 50 * time.Millisecond

// Every plane keeps 240-point series rings (even, so a ring halves
// cleanly when it downsamples) and a 512-event / 5s flight recorder.
const (
	seriesCap      = 240
	recorderCap    = 512
	recorderWindow = 5 * time.Second
)

// Config is what NewSession takes. It has no fields: every plane samples
// every 50 ms of virtual time, and objectives are installed per plane
// (Plane.SetObjectives).
type Config struct{}

// Session collects the telemetry planes of every environment attached to
// it. It is a plain value: a run owns its session, and concurrent runs each
// observe through their own.
type Session struct {
	planes []*Plane
	labels map[string]int
}

// NewSession returns a session with no planes yet.
func NewSession(Config) *Session {
	return &Session{labels: make(map[string]int)}
}

// FlightDump concatenates every plane's recent flight-recorder window into
// one text block — the capture attached to chaos invariant violations.
// Empty when nothing was recorded; safe on a nil session.
func (s *Session) FlightDump() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, pl := range s.planes {
		d := pl.rec.Dump(pl.env.Now())
		if d == "" {
			continue
		}
		fmt.Fprintf(&b, "plane %s\n", pl.label)
		b.WriteString(d)
	}
	return b.String()
}

type slot int

const planeSlot slot = 0

// Attach creates a telemetry plane for env, sampling reg every tick. An
// environment has one plane: attaching it again returns that plane. Safe on
// a nil session, returning a nil plane on which every method is a no-op.
func (s *Session) Attach(env *sim.Env, reg *trace.Registry, label string) *Plane {
	if s == nil || env == nil {
		return nil
	}
	if pl, ok := env.Observer(planeSlot).(*Plane); ok {
		return pl
	}
	// Arms of a sweep often share a label ("pcsi/packed"); suffix repeats
	// so dashboard panels stay distinguishable.
	s.labels[label]++
	if n := s.labels[label]; n > 1 {
		label = fmt.Sprintf("%s#%d", label, n)
	}
	pl := &Plane{
		env:      env,
		reg:      reg,
		label:    label,
		byKey:    make(map[string]*Series),
		prevHist: make(map[string]metrics.HistSnapshot),
		prevCnt:  make(map[string]metrics.CounterSnapshot),
		rec:      newRecorder(recorderCap, recorderWindow),
	}
	env.SetObserver(planeSlot, pl)
	s.planes = append(s.planes, pl)
	env.After(tickInterval, pl.tick)
	return pl
}

// Plane is the telemetry of one simulation environment: its sampled
// series, SLO objective states, alert log, and flight recorder.
type Plane struct {
	env   *sim.Env
	reg   *trace.Registry
	label string

	series []*Series          // creation order
	byKey  map[string]*Series // metric+"|"+stat

	prevHist map[string]metrics.HistSnapshot
	prevCnt  map[string]metrics.CounterSnapshot
	// lastDelta holds each counter's count delta and each histogram's
	// window count for the tick just sampled; lastWindow holds the
	// histograms' windowed snapshots. Both feed SLO evaluation.
	lastDelta  map[string]float64
	lastWindow map[string]metrics.HistSnapshot

	objectives []*objectiveState
	alerts     []Alert
	rec        *Recorder
}

// SetLabel renames the plane — experiments use it to tell sweep arms
// apart. Safe on a nil plane.
func (pl *Plane) SetLabel(label string) {
	if pl == nil {
		return
	}
	pl.label = label
}

// Record appends a flight-recorder event stamped with the environment's
// current virtual time. Safe on a nil plane — instrumentation can call it
// unconditionally.
func (pl *Plane) Record(kind, name, detail string) {
	if pl == nil {
		return
	}
	pl.rec.Record(FlightEvent{At: pl.env.Now(), Kind: kind, Name: name, Detail: detail})
}

// RecordErr is Record with err as the detail, kept unformatted: the
// recorder calls err.Error() only for an event still in its ring when its
// events are read, so err must not change after it is recorded. Safe on a
// nil plane.
func (pl *Plane) RecordErr(kind, name string, err error) {
	if pl == nil {
		return
	}
	pl.rec.Record(FlightEvent{At: pl.env.Now(), Kind: kind, Name: name, err: err})
}

// tick runs one sampling round in engine context and reschedules itself
// while the environment still has other work queued. The pending check
// runs after this tick's event was popped and before the next one is
// pushed, so it counts only foreign events: the sampler stops — instead
// of ticking forever — as soon as it would be the only thing left, and a
// drain terminates exactly as it would without obs.
func (pl *Plane) tick() {
	now := pl.env.Now()
	pl.sample(now)
	pl.evaluate(now)
	if pl.env.Pending() > 0 {
		pl.env.After(tickInterval, pl.tick)
	}
}

// sample snapshots every registry metric into the plane's series rings.
func (pl *Plane) sample(now sim.Time) {
	if pl.lastDelta == nil {
		pl.lastDelta = make(map[string]float64)
		pl.lastWindow = make(map[string]metrics.HistSnapshot)
	} else {
		clear(pl.lastDelta)
		clear(pl.lastWindow)
	}
	for _, name := range pl.reg.Names() {
		switch m := pl.reg.Get(name).(type) {
		case *metrics.Counter:
			snap := m.Snapshot()
			d := snap.Delta(pl.prevCnt[name])
			pl.prevCnt[name] = snap
			pl.seriesFor(name, "rate", "/s", aggMean).push(now, pl.rate(float64(d.N)))
			pl.lastDelta[name] = float64(d.N)
		case *metrics.Gauge:
			pl.seriesFor(name, "level", "", aggMean).push(now, m.Snapshot().Level)
		case *metrics.Histogram:
			snap := m.Snapshot()
			win := snap.Delta(pl.prevHist[name])
			pl.prevHist[name] = snap
			pl.seriesFor(name, "rate", "/s", aggMean).push(now, pl.rate(float64(win.Total)))
			pl.lastDelta[name] = float64(win.Total)
			pl.lastWindow[name] = win
			if win.Total > 0 {
				pl.seriesFor(name, "p50", "ns", aggMax).push(now, float64(win.P50()))
				pl.seriesFor(name, "p95", "ns", aggMax).push(now, float64(win.P95()))
				pl.seriesFor(name, "p99", "ns", aggMax).push(now, float64(win.P99()))
			}
		}
	}
}

// rate converts a per-tick event count to events per second.
func (pl *Plane) rate(delta float64) float64 {
	return delta * 1e9 / float64(tickInterval.Nanoseconds())
}

func (pl *Plane) seriesFor(metric, stat, unit string, agg aggKind) *Series {
	key := metric + "|" + stat
	if s, ok := pl.byKey[key]; ok {
		return s
	}
	s := &Series{Metric: metric, Stat: stat, Unit: unit, ring: newRing(seriesCap, agg)}
	pl.byKey[key] = s
	pl.series = append(pl.series, s)
	return s
}

// SeriesList returns the plane's series sorted by (metric, stat).
func (pl *Plane) SeriesList() []*Series {
	if pl == nil {
		return nil
	}
	out := append([]*Series(nil), pl.series...)
	sortSeries(out)
	return out
}

// SeriesData returns one series' points by metric name and stat
// ("rate", "level", "p50", "p95", "p99"), or nil when absent.
func (pl *Plane) SeriesData(metric, stat string) []Point {
	if pl == nil {
		return nil
	}
	s, ok := pl.byKey[metric+"|"+stat]
	if !ok {
		return nil
	}
	return s.Points()
}
