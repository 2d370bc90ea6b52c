package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// quickCfg seeds testing/quick so the property tests are reproducible.
func quickCfg() *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(7)), MaxCount: 200}
}

// concat returns a's observations followed by b's, in a fresh slice.
func concat(a, b []time.Duration) []time.Duration {
	return append(append([]time.Duration(nil), a...), b...)
}

func histSnap(ds []time.Duration) HistSnapshot {
	h := NewHistogram("h")
	for _, d := range ds {
		h.Observe(d)
	}
	return h.Snapshot()
}

// Delta inverts combining windows: snapshotting before and after a batch
// of observations and differencing recovers exactly the batch's window,
// and the later snapshot is the one of both streams observed in order.
func TestHistSnapshotDeltaInvertsMerge(t *testing.T) {
	prop := func(a, b []time.Duration) bool {
		h := NewHistogram("h")
		for _, d := range a {
			h.Observe(d)
		}
		before := h.Snapshot()
		for _, d := range b {
			h.Observe(d)
		}
		after := h.Snapshot()
		window := after.Delta(before)
		return reflect.DeepEqual(window, histSnap(b)) &&
			reflect.DeepEqual(after, histSnap(concat(a, b)))
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Quantiles must be monotone in q, and the quantile of a combined window
// (both streams observed in one histogram) must sit between the matching
// quantiles of its parts. The bracketing half of
// the property is checked at dyadic quantiles only: ceil(q*n) is computed
// in float64, and for non-dyadic q (0.95, 0.99) representation error can
// shift the rank by one, which is a rounding artifact, not a bucketing bug.
func TestHistSnapshotQuantileMonotoneAcrossMerge(t *testing.T) {
	monotone := []float64{0, 0.25, 0.50, 0.90, 0.95, 0.99, 1}
	dyadic := []float64{0, 0.25, 0.50, 0.75, 1}
	prop := func(a, b []time.Duration) bool {
		sa, sb := histSnap(a), histSnap(b)
		m := histSnap(concat(a, b))
		prev := time.Duration(-1)
		for _, q := range monotone {
			v := m.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		if sa.Total == 0 || sb.Total == 0 {
			return true
		}
		for _, q := range dyadic {
			lo, hi := sa.Quantile(q), sb.Quantile(q)
			if hi < lo {
				lo, hi = hi, lo
			}
			if v := m.Quantile(q); v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestHistSnapshotQuantileAccuracy(t *testing.T) {
	h := NewHistogram("h")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q     float64
		exact time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := s.Quantile(tc.q)
		lo := tc.exact - tc.exact/10
		hi := tc.exact + tc.exact/10
		if got < lo || got > hi {
			t.Errorf("q=%v: got %v, want within 10%% of %v", tc.q, got, tc.exact)
		}
	}
	if got := s.Sum / time.Duration(s.Total); got != h.Mean() {
		t.Errorf("snapshot mean %v != histogram mean %v", got, h.Mean())
	}
	if s.Total != 1000 {
		t.Errorf("count = %d, want 1000", s.Total)
	}
}

func TestHistSnapshotZeroAndEmpty(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if !reflect.DeepEqual(histSnap(concat(nil, nil)), empty) {
		t.Error("snapshot of no observations != the zero snapshot")
	}
	h := NewHistogram("h")
	h.Observe(0)
	h.Observe(-5 * time.Millisecond) // clamped to the zero bucket
	s := h.Snapshot()
	if s.Total != 2 || s.P99() != 0 {
		t.Errorf("zero-bucket snapshot: total=%d p99=%v, want 2 and 0", s.Total, s.P99())
	}
}

func TestCounterSnapshotDelta(t *testing.T) {
	c := NewCounter("c")
	c.Add(3)
	before := c.Snapshot()
	c.Add(5)
	d := c.Snapshot().Delta(before)
	if d.N != 5 {
		t.Errorf("delta = %+v, want N=5", d)
	}
}

func TestGaugeSnapshot(t *testing.T) {
	g := NewGauge("g")
	g.Set(0, 4)
	g.Set(10, 2)
	s := g.Snapshot()
	if s.Level != 2 || s.Max != 4 {
		t.Errorf("snapshot = %+v, want Level=2 Max=4", s)
	}
}
