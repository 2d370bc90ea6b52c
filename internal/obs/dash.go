package obs

import (
	"encoding/json"
	"io"
)

// Timeline is the machine-readable dump of one session: every plane's
// series, objective statuses, alerts, and flight events. All timestamps
// are virtual nanoseconds since the epoch; encoding uses sorted series
// and append-order logs only, so marshalling is byte-deterministic.
type Timeline struct {
	Experiment string          `json:"experiment"`
	Seed       int64           `json:"seed"`
	IntervalNS int64           `json:"interval_ns"`
	Planes     []PlaneTimeline `json:"planes"`
}

// PlaneTimeline is the dump of one environment's telemetry plane.
type PlaneTimeline struct {
	Label      string            `json:"label"`
	EndNS      int64             `json:"end_ns"`
	Series     []SeriesData      `json:"series"`
	Objectives []ObjectiveStatus `json:"objectives"`
	Alerts     []AlertData       `json:"alerts"`
	Flight     []FlightData      `json:"flight"`
}

// SeriesData is one sampled series.
type SeriesData struct {
	Metric string      `json:"metric"`
	Stat   string      `json:"stat"`
	Unit   string      `json:"unit"`
	Points []PointData `json:"points"`
}

// PointData is one sample.
type PointData struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// ObjectiveStatus summarises one objective's outcome.
type ObjectiveStatus struct {
	Name      string `json:"name"`
	Target    string `json:"target"`
	Fires     int    `json:"fires"`
	FirstFire int64  `json:"first_fire_ns"` // -1 when it never fired
}

// AlertData is one alert transition.
type AlertData struct {
	T         int64   `json:"t"`
	Objective string  `json:"objective"`
	Kind      string  `json:"kind"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// FlightData is one flight-recorder event.
type FlightData struct {
	T      int64  `json:"t"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// Timeline assembles the session's planes into an exportable timeline.
func (s *Session) Timeline(experiment string, seed int64) *Timeline {
	tl := &Timeline{Experiment: experiment, Seed: seed}
	if s == nil {
		return tl
	}
	tl.IntervalNS = tickInterval.Nanoseconds()
	for _, pl := range s.planes {
		tl.Planes = append(tl.Planes, pl.timeline())
	}
	return tl
}

func (pl *Plane) timeline() PlaneTimeline {
	pt := PlaneTimeline{Label: pl.label, EndNS: int64(pl.env.Now())}
	for _, s := range pl.SeriesList() {
		sd := SeriesData{Metric: s.Metric, Stat: s.Stat, Unit: s.Unit}
		for _, p := range s.Points() {
			sd.Points = append(sd.Points, PointData{T: int64(p.T), V: p.V})
		}
		pt.Series = append(pt.Series, sd)
	}
	for _, o := range pl.Objectives() {
		st := ObjectiveStatus{Name: o.Name, Target: o.Target(), FirstFire: -1}
		for _, a := range pl.alerts {
			if a.Objective != o.Name || a.Kind != "fire" {
				continue
			}
			st.Fires++
			if st.FirstFire < 0 {
				st.FirstFire = int64(a.At)
			}
		}
		pt.Objectives = append(pt.Objectives, st)
	}
	for _, a := range pl.alerts {
		pt.Alerts = append(pt.Alerts, AlertData{
			T: int64(a.At), Objective: a.Objective,
			Kind: a.Kind, ShortBurn: a.ShortBurn, LongBurn: a.LongBurn,
		})
	}
	for _, ev := range pl.rec.Events() {
		pt.Flight = append(pt.Flight, FlightData{
			T: int64(ev.At), Kind: ev.Kind, Name: ev.Name, Detail: ev.Detail,
		})
	}
	return pt
}

// WriteJSON writes the timeline as indented JSON. Output is
// byte-deterministic: field order is fixed by the struct tags and float
// formatting by encoding/json's shortest-round-trip rule.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}
