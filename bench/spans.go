package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// span is one host-clock interval around a call the benchmark made into a
// layer's public function. Spans of one request share req; parent is the
// index+1 of the span that caused this one in the recorder, or 0.
type span struct {
	name       string // <module>.<Func>
	start, end int64  // host ns, from now()
	parent     int32
	tid        int32 // simulated client proc or connection
	req        int64
}

// recorder keeps spans in memory; a nil recorder records nothing, so the
// untraced run pays one nil check per call site.
type recorder struct {
	spans []span
	// group is the index+1 of the open enclosing span (a traced pass, a
	// ladder rung); spans recorded without a parent of their own hang under
	// it.
	group int32
}

// openGroup starts a span that encloses everything recorded until the
// returned function is called.
func (r *recorder) openGroup(name string) (closeGroup func()) {
	if r == nil {
		return func() {}
	}
	outer := r.group
	r.spans = append(r.spans, span{name: name, start: now(), parent: outer})
	idx := int32(len(r.spans))
	r.group = idx
	return func() {
		r.spans[idx-1].end = now()
		r.group = outer
	}
}

// begin returns the start time for a span, or 0 with tracing off.
func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	return now()
}

// end closes a span opened at t0.
func (r *recorder) end(name string, t0 int64, tid int32, req int64) {
	if r != nil {
		r.add(name, t0, now(), tid, req)
	}
}

// add records a span whose bounds the caller measured itself.
func (r *recorder) add(name string, t0, t1 int64, tid int32, req int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, start: t0, end: t1, parent: r.group, tid: tid, req: req})
}

// merge appends another recorder's spans (the ladder's, or the loopback
// workload's per-connection recorders). Their top-level spans hang under
// the receiver's open group.
func (r *recorder) merge(o *recorder) {
	if r == nil || o == nil {
		return
	}
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if s.parent > 0 {
			s.parent += base
		} else {
			s.parent = r.group
		}
		r.spans = append(r.spans, s)
	}
}

// traceFileCap bounds the spans written to one trace file so it stays
// loadable in chrome://tracing; the in-memory set is never truncated.
const traceFileCap = 60_000

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the recorder as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps). The ladder's spans come last in the
// recorder and are kept in preference to the bulk workload spans.
func (r *recorder) writeTrace(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := r.spans
	truncated := len(spans) > traceFileCap
	if truncated {
		spans = spans[len(spans)-traceFileCap:]
	}
	first := len(r.spans) - len(spans) // args.id is the index in the full set
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q,\"spans_recorded\":%d,\"truncated\":%v},\"traceEvents\":[\n",
		workload, len(r.spans), truncated)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		cat, _, _ := strings.Cut(s.name, ".")
		ev := chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]any{"id": first + i, "req": s.req},
		}
		if s.parent > 0 {
			ev.Args["parent"] = s.parent - 1
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
