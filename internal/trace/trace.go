// Package trace is a deterministic, virtual-time span tracer for the
// simulation engine. Spans carry sim.Time start/end stamps, a parent span
// ID, causal links, and key/value attributes; no wall clock is ever read,
// so the package satisfies the simtime invariant by construction, and span
// IDs are drawn from a per-environment observer rand stream (sim.Env.
// ObserverRand) rather than a global counter, so two runs with the same
// seed produce byte-identical traces.
//
// Tracing is opt-in per environment: instrumentation calls trace.Of(env),
// which returns nil unless a Collector was attached to env, and every method
// is safe on a nil Tracer or nil Span. An untraced run therefore pays only a
// nil check and — because ObserverRand does not touch the environment's
// fork counter — draws exactly the same random numbers as a traced one.
//
// The package also hosts Registry, a unified directory of named metrics
// (see registry.go), the Chrome trace_event exporter (export.go), and the
// critical-path analyzer (critical.go). It may import only internal/sim and
// the standard library; the layering analyzer enforces this.
package trace

import (
	"math/rand"
	"strconv"

	"repro/internal/sim"
)

// SpanID identifies a span within one exported trace. IDs fit in 32 bits so
// they survive the float64 round-trip of JSON trace viewers. Zero means
// "no span".
type SpanID uint64

// Attr is one key/value annotation on a span. An integer stays unrendered
// until the exporter asks (spanArgs), so building attributes for a span
// nobody is collecting costs no formatting and no allocation.
type Attr struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, str: v} }

// Int returns an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, num: v, isNum: true} }

// Span is one timed (or instant) interval of virtual time. Fields are
// exported for the exporter and analyzer; instrumentation should only use
// Close and Annotate.
type Span struct {
	ID      SpanID
	Parent  SpanID   // enclosing span, or 0 for a root
	Links   []SpanID // causal predecessors that are not the parent
	Cat     string   // component category ("core.data", "net", "faas", ...)
	Name    string
	Track   string // display lane, normally the opening process's name
	Start   sim.Time
	End     sim.Time
	Attrs   []Attr
	Instant bool // zero-duration point event

	seq  int // creation order within the tracer; tiebreaker everywhere
	open bool
	prev *Span     // span context to restore on Close
	proc *sim.Proc // the opening process, until Close
}

// Close ends the span at the process's current virtual time and pops it
// from the process's span context. Safe on a nil span; closing twice is a
// no-op.
func (s *Span) Close(p *sim.Proc) {
	if s == nil || !s.open {
		return
	}
	s.open = false
	s.End = p.Now()
	s.proc = nil
	if cur, ok := p.SpanCtx().(*Span); ok && cur == s {
		p.SetSpanCtx(s.prev)
	}
}

// CloseAt ends a span Begin opened at virtual time now. Safe on a nil
// span; closing twice is a no-op.
func (s *Span) CloseAt(now sim.Time) {
	if s == nil || !s.open {
		return
	}
	s.open = false
	s.End = now
}

// Annotate appends attributes to the span. Safe on a nil span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Duration returns End-Start.
func (s *Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Tracer records spans for one simulation environment. One tracer maps to
// one process row ("pid") in the Chrome export.
type Tracer struct {
	env   *sim.Env
	c     *Collector
	label string
	rng   *rand.Rand
	used  map[SpanID]bool
	spans []*Span
}

// Collector gathers the tracers of the environments attached to it, in the
// order each is first traced. Each run owns its collector.
type Collector struct {
	tracers []*Tracer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach makes c trace env from its first Of on. Safe on a nil collector.
func (c *Collector) Attach(env *sim.Env) {
	if c != nil {
		env.SetObserver(tracerSlot, &Tracer{env: env, c: c})
	}
}

// collecting is the process default that only pcsi.New reads, via
// Collecting; it serves callers not yet moved to Options.Trace.
var collecting *Collector

// StartCollecting installs a new collector as the process default, until
// Stop, and returns it.
func StartCollecting() *Collector {
	collecting = NewCollector()
	return collecting
}

// Collecting returns the process default collector, or nil.
func Collecting() *Collector { return collecting }

// Stop uninstalls c as the process default, if it is.
func (c *Collector) Stop() {
	if collecting == c {
		collecting = nil
	}
}

// Data snapshots the collected spans as one run per tracer, in tracer
// creation order. Spans still open are closed at their environment's final
// virtual time. That is legal for a process still parked or aborted at
// shutdown; a span whose process returned without closing it is also
// listed in Leaked.
func (c *Collector) Data() *Data {
	d := &Data{}
	for _, t := range c.tracers {
		for _, s := range t.spans {
			if s.open {
				s.open = false
				s.End = t.env.Now()
				if s.End < s.Start {
					s.End = s.Start
				}
			}
			if s.proc != nil && s.proc.Returned() {
				d.Leaked = append(d.Leaked, s)
			}
		}
		d.Runs = append(d.Runs, Run{Label: t.label, Spans: t.spans})
	}
	return d
}

type slot int

const tracerSlot slot = 0

// Of returns env's tracer, registering it with its collector on first use,
// or nil when env is untraced. All instrumentation goes through Of, so an
// untraced call costs one slot lookup and allocates nothing.
func Of(env *sim.Env) *Tracer {
	if env == nil {
		return nil
	}
	t, _ := env.Observer(tracerSlot).(*Tracer)
	if t != nil && t.rng == nil {
		t.label = "run" + strconv.Itoa(len(t.c.tracers)+1)
		t.rng = env.ObserverRand("trace.spanid")
		t.used = make(map[SpanID]bool)
		t.c.tracers = append(t.c.tracers, t)
	}
	return t
}

// SetLabel names the tracer's process row in the export ("pcsi/colocate",
// "rest", ...). Safe on a nil tracer.
func (t *Tracer) SetLabel(label string) {
	if t == nil {
		return
	}
	t.label = label
}

// newID draws a fresh nonzero 32-bit span ID from the observer stream,
// retrying the (vanishingly rare) collisions so IDs are unique per tracer.
func (t *Tracer) newID() SpanID {
	for {
		id := SpanID(t.rng.Uint32())
		if id != 0 && !t.used[id] {
			t.used[id] = true
			return id
		}
	}
}

// Start opens a span on process p at the current virtual time, nested under
// the process's current span (if any). Safe on a nil tracer, returning a
// nil span on which Close and Annotate are no-ops.
func (t *Tracer) Start(p *sim.Proc, cat, name string, attrs ...Attr) *Span {
	return t.StartSpan(p, 0, nil, cat, name, attrs...)
}

// StartSpan opens a span with an explicit parent and causal links. A zero
// parent nests under the process's current span; parent == NoParent forces
// a root span even inside an open span context. The span keeps a copy of
// attrs, never the slice itself, so a call site's variadic slice does not
// escape and an untraced call allocates nothing (Instant and Mark likewise).
func (t *Tracer) StartSpan(p *sim.Proc, parent SpanID, links []SpanID, cat, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		ID:     t.newID(),
		Parent: parent,
		Links:  links,
		Cat:    cat,
		Name:   name,
		Track:  p.Name(),
		Start:  p.Now(),
		Attrs:  append([]Attr(nil), attrs...),
		seq:    len(t.spans),
		open:   true,
		proc:   p,
	}
	if cur, ok := p.SpanCtx().(*Span); ok && cur != nil {
		if parent == 0 {
			s.Parent = cur.ID
		}
		s.Track = cur.Track
		s.prev = cur
	}
	if s.Parent == NoParent {
		s.Parent = 0
	}
	t.spans = append(t.spans, s)
	p.SetSpanCtx(s)
	return s
}

// Begin opens a root span on track at the environment's current virtual
// time, outside any process: an engine callback chain that models one
// activity across several events (a replication leg's message) opens it
// and closes it with CloseAt. It joins no span context, and a process
// returning does not leak it. Safe on a nil tracer.
func (t *Tracer) Begin(track, cat, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := t.Mark(track, cat, name, t.env.Now(), 0, attrs...)
	s.open = true
	return s
}

// NoParent forces StartSpan to open a root span even when the process has
// an open span context (used for shadow spans like dependency waits that
// must not be attributed under the enclosing span).
const NoParent SpanID = 1<<64 - 1

// Instant records a zero-duration point event on the given display track at
// the environment's current time. Safe on a nil tracer.
func (t *Tracer) Instant(track, cat, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	now := t.env.Now()
	t.spans = append(t.spans, &Span{
		ID:      t.newID(),
		Cat:     cat,
		Name:    name,
		Track:   track,
		Start:   now,
		End:     now,
		Attrs:   append([]Attr(nil), attrs...),
		Instant: true,
		seq:     len(t.spans),
	})
}

// Mark records a closed span with explicit bounds, outside any process
// context — the experiment harness uses it for the run-level root span.
// Safe on a nil tracer.
func (t *Tracer) Mark(track, cat, name string, start, end sim.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		ID:    t.newID(),
		Cat:   cat,
		Name:  name,
		Track: track,
		Start: start,
		End:   end,
		Attrs: append([]Attr(nil), attrs...),
		seq:   len(t.spans),
	}
	t.spans = append(t.spans, s)
	return s
}

// SpanID returns the span's ID, or 0 for nil — convenient when recording
// the span of an operation that may not have been traced.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.ID
}

// Data is the collected output of one traced run: one Run per simulation
// environment, in creation order.
type Data struct {
	Runs []Run
	// Leaked are the spans whose process returned before closing them.
	Leaked []*Span
}

// Run is the span set of one environment plus its display label.
type Run struct {
	Label string
	Spans []*Span
}

// Merge concatenates several traced runs into one Data, preserving order —
// used by `pcsictl trace E2,E4,...` to emit a single file across
// experiments.
func Merge(ds ...*Data) *Data {
	out := &Data{}
	for _, d := range ds {
		if d == nil {
			continue
		}
		out.Runs = append(out.Runs, d.Runs...)
	}
	return out
}
