// Package obs is the deterministic virtual-time telemetry plane: a
// time-series sampler over the metric registry, SLO objectives with
// multi-window burn-rate alerting, and a bounded flight recorder for
// post-mortem dumps.
//
// Everything runs inside the simulation's own clock. A sampler tick is an
// engine-context callback scheduled with sim.Env.After, so sampling
// consumes no randomness (neither Env.Rand nor ForkRand is ever touched),
// reads metrics without mutating them, and reschedules itself only while
// the environment still has foreign events pending — an attached plane
// therefore never keeps a drain alive and never changes the order or
// content of workload events. With no Session active the package costs one
// nil check per call site, and every output it produces is a pure function
// of (seed, workload), byte-identical across re-runs.
//
// Layering: obs may import only internal/sim, internal/metrics, and
// internal/trace (the layering analyzer enforces this). It deliberately
// does not use sim.Env's ObserverContext — that slot belongs to the
// tracer — and instead keeps its own env→plane table in the Session.
package obs

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultInterval is the sampling period used when Config.Interval is zero.
const DefaultInterval = 50 * time.Millisecond

// NoSampling disables the time-series sampler (and with it SLO evaluation)
// while keeping the flight recorder available.
const NoSampling = sim.Duration(-1)

// Every plane keeps 240-point series rings (even, so a ring halves
// cleanly when it downsamples) and a 512-event / 5s flight recorder.
const (
	seriesCap      = 240
	recorderCap    = 512
	recorderWindow = 5 * time.Second
)

// Config parameterises a Session. The zero value gives 50ms sampling.
type Config struct {
	Interval   sim.Duration // sampling period; 0 = DefaultInterval, NoSampling = off
	Objectives []Objective  // objectives installed on every attached plane
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	return c
}

// Session collects the telemetry planes of every environment attached
// while it is active — the same process-global discipline as
// trace.StartCollecting and fault.Activate, and safe for the same reason:
// the engine runs one process at a time.
type Session struct {
	cfg    Config
	planes []*Plane
	byEnv  map[*sim.Env]*Plane
	labels map[string]int
}

// activeSession is the process-wide session, or nil when obs is off.
var activeSession *Session

// Activate turns the telemetry plane on. Exactly one session may be active
// at a time; the caller must Deactivate when done.
func Activate(cfg Config) *Session {
	if activeSession != nil {
		panic("obs: a session is already active")
	}
	activeSession = &Session{
		cfg:    cfg.withDefaults(),
		byEnv:  make(map[*sim.Env]*Plane),
		labels: make(map[string]int),
	}
	return activeSession
}

// Deactivate turns the telemetry plane off. Attached planes keep their
// data. Safe to call on an already-deactivated session.
func (s *Session) Deactivate() {
	if activeSession == s {
		activeSession = nil
	}
}

// ActiveSession returns the active session, or nil when obs is off.
func ActiveSession() *Session { return activeSession }

// Planes returns the attached planes in attach order.
func (s *Session) Planes() []*Plane {
	if s == nil {
		return nil
	}
	return s.planes
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

// Attach creates a telemetry plane for env, sampling reg at the session's
// interval. Attaching the same environment twice returns the existing
// plane. Safe on a nil session, returning a nil plane on which every
// method is a no-op.
func (s *Session) Attach(env *sim.Env, reg *trace.Registry, label string) *Plane {
	if s == nil || env == nil {
		return nil
	}
	if pl, ok := s.byEnv[env]; ok {
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
		interval: s.cfg.Interval,
		byKey:    make(map[string]*Series),
		prevHist: make(map[string]metrics.HistSnapshot),
		prevCnt:  make(map[string]metrics.CounterSnapshot),
		rec:      newRecorder(recorderCap, recorderWindow),
	}
	pl.SetObjectives(s.cfg.Objectives...)
	s.byEnv[env] = pl
	s.planes = append(s.planes, pl)
	if pl.interval > 0 {
		env.After(pl.interval, pl.tick)
	}
	return pl
}

// Plane is the telemetry of one simulation environment: its sampled
// series, SLO objective states, alert log, and flight recorder.
type Plane struct {
	env      *sim.Env
	reg      *trace.Registry
	label    string
	interval sim.Duration

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
	samples    int
}

// Label returns the plane's display label.
func (pl *Plane) Label() string {
	if pl == nil {
		return ""
	}
	return pl.label
}

// SetLabel renames the plane — experiments use it to tell sweep arms
// apart. Safe on a nil plane.
func (pl *Plane) SetLabel(label string) {
	if pl == nil {
		return
	}
	pl.label = label
}

// Interval returns the sampling period.
func (pl *Plane) Interval() sim.Duration {
	if pl == nil {
		return 0
	}
	return pl.interval
}

// Samples returns the number of sampler ticks taken so far.
func (pl *Plane) Samples() int {
	if pl == nil {
		return 0
	}
	return pl.samples
}

// Recorder returns the plane's flight recorder (nil on a nil plane).
func (pl *Plane) Recorder() *Recorder {
	if pl == nil {
		return nil
	}
	return pl.rec
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
		pl.env.After(pl.interval, pl.tick)
	}
}

// sample snapshots every registry metric into the plane's series rings.
func (pl *Plane) sample(now sim.Time) {
	pl.samples++
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
	return delta * 1e9 / float64(pl.interval.Nanoseconds())
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
