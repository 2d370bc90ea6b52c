package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRingDownsamplesToCapacity(t *testing.T) {
	r := newRing(16, aggMean)
	for i := 1; i <= 1000; i++ {
		r.push(sim.Time(i)*sim.Time(time.Millisecond), float64(i))
	}
	pts := r.points()
	if len(pts) > 16 {
		t.Fatalf("ring holds %d points, capacity 16", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("timestamps not increasing: %v then %v", pts[i-1].T, pts[i].T)
		}
	}
	// The whole timeline must stay covered: the final pushed sample's
	// timestamp survives folding (folded points keep the later stamp).
	if last := pts[len(pts)-1].T; last != sim.Time(1000*time.Millisecond) {
		t.Fatalf("last point at %v, want 1s", last)
	}
}

func TestRingMeanFolds(t *testing.T) {
	r := newRing(4, aggMean)
	// Capacity 4 with 4 pushes triggers one compaction to stride 2.
	for i, v := range []float64{10, 20, 30, 50} {
		r.push(sim.Time(i+1), v)
	}
	pts := r.points()
	if len(pts) != 2 || pts[0].V != 15 || pts[1].V != 40 {
		t.Fatalf("folded points = %+v, want means 15 and 40", pts)
	}
}

func TestRingMaxAggKeepsSpikes(t *testing.T) {
	r := newRing(8, aggMax)
	for i := 1; i <= 640; i++ {
		v := 1.0
		if i == 333 {
			v = 99 // one spike must survive every fold
		}
		r.push(sim.Time(i), v)
	}
	max := 0.0
	for _, p := range r.points() {
		if p.V > max {
			max = p.V
		}
	}
	if max != 99 {
		t.Fatalf("spike lost in downsampling: max = %v", max)
	}
}

func TestRecorderEvictionOrder(t *testing.T) {
	r := newRecorder(4, time.Hour)
	for i := 1; i <= 6; i++ {
		r.Record(FlightEvent{At: sim.Time(i), Kind: "k", Name: string(rune('a' - 1 + i))})
	}
	if r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4 and 2", r.Len(), r.Dropped())
	}
	got := ""
	for _, ev := range r.Events() {
		got += ev.Name
	}
	if got != "cdef" {
		t.Fatalf("events = %q, want oldest-first cdef", got)
	}
}

func TestRecorderRecentWindow(t *testing.T) {
	r := newRecorder(16, 5*time.Second)
	r.Record(FlightEvent{At: sim.Time(1 * time.Second), Name: "old"})
	r.Record(FlightEvent{At: sim.Time(8 * time.Second), Name: "new"})
	recent := r.Recent(sim.Time(10 * time.Second))
	if len(recent) != 1 || recent[0].Name != "new" {
		t.Fatalf("recent = %+v, want only the event inside the 5s window", recent)
	}
	if dump := r.Dump(sim.Time(10 * time.Second)); dump == "" {
		t.Fatal("dump empty with events in window")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(FlightEvent{})
	if r.Len() != 0 || r.Dump(0) != "" || r.Events() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

// countingErr counts the calls to its Error method.
type countingErr struct{ calls *int }

func (e countingErr) Error() string {
	*e.calls++
	return "counted"
}

// TestRecordErrFormatsOnlyWhatTheRingKeeps: an error recorded through
// RecordErr is formatted when the recorder's events are read, once, and only
// while the ring still holds it.
func TestRecordErrFormatsOnlyWhatTheRingKeeps(t *testing.T) {
	env := sim.NewEnv(1)
	pl := NewSession(Config{}).Attach(env, trace.NewRegistry(), "lazy")
	calls := 0
	for i := 0; i < 600; i++ {
		pl.RecordErr("retry", "op", countingErr{&calls})
	}
	if calls != 0 {
		t.Fatalf("600 recorded errors were formatted %d times before any read, want 0", calls)
	}
	evs := pl.rec.Events()
	if calls != recorderCap || len(evs) != recorderCap {
		t.Fatalf("reading %d events formatted %d errors, want %d", len(evs), calls, recorderCap)
	}
	for _, ev := range evs {
		if ev.Kind != "retry" || ev.Name != "op" || ev.Detail != "counted" {
			t.Fatalf("event = %+v, want retry/op with detail %q", ev, "counted")
		}
	}
	if dump := pl.rec.Dump(env.Now()); !strings.Contains(dump, "retry  op (counted)") || calls != recorderCap {
		t.Fatalf("a second read formatted again (%d calls) or lost the detail:\n%s", calls, dump)
	}
}
