package obs

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// FlightEvent is one entry in the flight recorder: a shed, fault, alert,
// or any other notable instant worth having around when something breaks.
type FlightEvent struct {
	At     sim.Time
	Kind   string // "shed" | "fault" | "alert" | ...
	Name   string
	Detail string

	err error // Detail not yet formatted: Events formats it (Plane.RecordErr)
}

func (e FlightEvent) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%12s %-6s %s", e.At, e.Kind, e.Name)
	}
	return fmt.Sprintf("%12s %-6s %s (%s)", e.At, e.Kind, e.Name, e.Detail)
}

// Recorder is a bounded ring of recent flight events. When full, the
// oldest event is evicted; Dropped counts evictions so a dump can say how
// much history was lost.
type Recorder struct {
	capacity int
	window   sim.Duration
	buf      []FlightEvent
	start    int // index of the oldest event
	n        int // live events
	dropped  int64
}

func newRecorder(capacity int, window sim.Duration) *Recorder {
	return &Recorder{capacity: capacity, window: window, buf: make([]FlightEvent, capacity)}
}

// Record appends an event, evicting the oldest when full. Safe on a nil
// recorder.
func (r *Recorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	if r.n == r.capacity {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % r.capacity
		r.dropped++
		return
	}
	r.buf[(r.start+r.n)%r.capacity] = ev
	r.n++
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many events were evicted to make room.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the buffered events oldest-first. An event recorded with
// an error gets its Detail here, formatted once: only what the ring still
// holds is ever formatted.
func (r *Recorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	out := make([]FlightEvent, 0, r.n)
	for i := 0; i < r.n; i++ {
		ev := &r.buf[(r.start+i)%r.capacity]
		if ev.err != nil {
			ev.Detail, ev.err = ev.err.Error(), nil
		}
		out = append(out, *ev)
	}
	return out
}

// Recent returns the buffered events within the recorder's lookback
// window ending at now, oldest-first — the "last five virtual seconds"
// view a dump wants.
func (r *Recorder) Recent(now sim.Time) []FlightEvent {
	if r == nil {
		return nil
	}
	cutoff := now.Add(-r.window)
	evs := r.Events()
	i := 0
	for i < len(evs) && evs[i].At < cutoff {
		i++
	}
	return evs[i:]
}

// Dump renders the recent window as indented text lines — the capture
// attached to chaos invariant violations and pcsictl output.
func (r *Recorder) Dump(now sim.Time) string {
	evs := r.Recent(now)
	if len(evs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d event(s)", len(evs))
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, " (%d older evicted)", d)
	}
	b.WriteByte('\n')
	for _, ev := range evs {
		b.WriteString("  ")
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
