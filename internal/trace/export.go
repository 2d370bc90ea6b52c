package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// The exporter writes Chrome trace_event format JSON: an object with a
// "traceEvents" array that chrome://tracing and Perfetto load directly.
// Each Run becomes one process (pid), each Track one thread (tid), spans
// become "X" complete events, instants "i" events, and causal links flow
// ("s"/"f") event pairs. Everything is emitted in a fixed order and
// encoding/json sorts map keys, so equal Data yields byte-identical output.

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`  // instant scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	ID   *SpanID        `json:"id,omitempty"` // flow event id
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// micros converts virtual nanoseconds to the microsecond float the trace
// format expects; int64 nanosecond counts up to 2^53 round-trip exactly.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// Export writes d as Chrome trace_event JSON. The output is deterministic:
// runs in order, spans sorted by (start, creation order), tids assigned by
// first appearance, metadata first.
func Export(w io.Writer, d *Data) error {
	f := &traceFile{DisplayTimeUnit: "ns", TraceEvents: []traceEvent{}}
	for i, run := range d.Runs {
		pid := i + 1
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": run.Label},
		})
		spans := append([]*Span(nil), run.Spans...)
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].Start != spans[b].Start {
				return spans[a].Start < spans[b].Start
			}
			return spans[a].seq < spans[b].seq
		})
		tids := make(map[string]int)
		for _, s := range spans {
			if _, ok := tids[s.Track]; !ok {
				tid := len(tids) + 1
				tids[s.Track] = tid
				f.TraceEvents = append(f.TraceEvents, traceEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": s.Track},
				})
			}
		}
		for _, s := range spans {
			ev := traceEvent{
				Name: s.Name, Cat: s.Cat, Ts: micros(int64(s.Start)),
				Pid: pid, Tid: tids[s.Track], Args: spanArgs(s),
			}
			if s.Instant {
				ev.Ph, ev.S = "i", "t"
			} else {
				ev.Ph = "X"
				dur := micros(int64(s.End - s.Start))
				ev.Dur = &dur
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
		// Causal links as flow arrows: one s/f pair per (producer,
		// consumer) edge, emitted in consumer span order.
		byID := make(map[SpanID]*Span, len(spans))
		for _, s := range spans {
			byID[s.ID] = s
		}
		for _, s := range spans {
			for _, link := range s.Links {
				from, ok := byID[link]
				if !ok {
					continue
				}
				id := from.ID
				f.TraceEvents = append(f.TraceEvents,
					traceEvent{
						Name: "dep", Cat: "flow", Ph: "s", Ts: micros(int64(from.End)),
						Pid: pid, Tid: tids[from.Track], ID: &id,
					},
					traceEvent{
						Name: "dep", Cat: "flow", Ph: "f", BP: "e", Ts: micros(int64(s.Start)),
						Pid: pid, Tid: tids[s.Track], ID: &id,
					})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// spanArgs renders a span's identity and attributes as the event's args.
// encoding/json emits map keys sorted, keeping the output deterministic.
func spanArgs(s *Span) map[string]any {
	args := map[string]any{"span": uint64(s.ID)}
	if s.Parent != 0 {
		args["parent"] = uint64(s.Parent)
	}
	for _, a := range s.Attrs {
		if a.isNum {
			args[a.Key] = strconv.FormatInt(a.num, 10)
		} else {
			args[a.Key] = a.str
		}
	}
	return args
}
