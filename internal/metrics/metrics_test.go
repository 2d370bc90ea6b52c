package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("x")
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram("lat")
	for _, d := range []time.Duration{10, 20, 30, 40} {
		h.Observe(d * time.Microsecond)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if h.Mean() != 25*time.Microsecond {
		t.Errorf("Mean = %v, want 25µs", h.Mean())
	}
	if h.min != 10*time.Microsecond || h.max != 40*time.Microsecond {
		t.Errorf("Min/Max = %v/%v", h.min, h.max)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram("q")
	rng := rand.New(rand.NewSource(1))
	var exact []time.Duration
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Intn(1_000_000) + 1)
		exact = append(exact, d)
		h.Observe(d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)))-1]
		got := h.Quantile(q)
		ratio := float64(got) / float64(want)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("Quantile(%v) = %v, exact %v (ratio %.3f)", q, got, want, ratio)
		}
	}
}

func TestHistogramQuantileExtremes(t *testing.T) {
	h := NewHistogram("e")
	h.Observe(5)
	h.Observe(500)
	if h.Quantile(0) != 5 {
		t.Errorf("Quantile(0) = %v, want min", h.Quantile(0))
	}
	if h.Quantile(1) != 500 {
		t.Errorf("Quantile(1) = %v, want max", h.Quantile(1))
	}
}

func TestHistogramZeroAndNegativeDurations(t *testing.T) {
	h := NewHistogram("z")
	h.Observe(0)
	h.Observe(-5) // clamped to 0: negative durations cannot occur in virtual time
	h.Observe(100)
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if h.min != 0 {
		t.Errorf("Min = %v, want 0 (zero bucket)", h.min)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram("p")
		for _, s := range samples {
			h.Observe(time.Duration(s%10_000_000) + 1)
		}
		prev := time.Duration(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.min || v > h.max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is always within [min, max].
func TestHistogramMeanBoundedProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram("m")
		for _, s := range samples {
			h.Observe(time.Duration(s))
		}
		return h.Mean() >= h.min && h.Mean() <= h.max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	if c.Name() != "ops" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestGaugeTimeWeightedAverage(t *testing.T) {
	g := NewGauge("util")
	g.Set(0, 1.0)  // level 1 for [0,10)
	g.Set(10, 0.0) // level 0 for [10,20)
	g.Set(20, 0.5) // level .5 for [20,40)
	avg := g.Avg(40)
	want := (1.0*10 + 0 + 0.5*20) / 40
	if diff := avg - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Avg = %v, want %v", avg, want)
	}
	if g.maxLevel != 1.0 {
		t.Errorf("Max = %v, want 1", g.maxLevel)
	}
}

func TestGaugeAdd(t *testing.T) {
	g := NewGauge("conc")
	g.Add(0, 2)
	g.Add(5, 3)
	g.Add(10, -4)
	if g.level != 1 {
		t.Errorf("Level = %v, want 1", g.level)
	}
	if g.maxLevel != 5 {
		t.Errorf("Max = %v, want 5", g.maxLevel)
	}
}

func TestGaugeAvgBeforeStart(t *testing.T) {
	g := NewGauge("x")
	if g.Avg(100) != 0 {
		t.Errorf("Avg of unset gauge = %v, want 0", g.Avg(100))
	}
}

// A window of zero duration has no area to integrate; the mean must be
// the level at that instant, not 0 — otherwise a burst whose updates all
// land on one virtual timestamp reports an average of zero depth while
// holding a nonzero queue.
func TestGaugeAvgZeroDurationWindow(t *testing.T) {
	g := NewGauge("depth")
	g.Set(50, 3)
	if got := g.Avg(50); got != 3 {
		t.Errorf("Avg over zero-duration window = %v, want 3", got)
	}
	g.Add(50, 2) // still the same instant
	if got := g.Avg(50); got != 5 {
		t.Errorf("Avg after same-instant Add = %v, want 5", got)
	}
	if got := g.Avg(40); got != 5 {
		t.Errorf("Avg with end before start = %v, want current level 5", got)
	}
	// Once the window has real width, normal integration resumes.
	g.Set(60, 0)
	if got, want := g.Avg(60), 5.0; got != want {
		t.Errorf("Avg over [50,60] = %v, want %v", got, want)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{17, "17ns"},
		{500, "500ns"},
		{5 * time.Microsecond, "5.0µs"},
		{50 * time.Microsecond, "50.0µs"},
		{200 * time.Microsecond, "200.0µs"},
		{1500 * time.Microsecond, "1.50ms"},
		{4300 * time.Microsecond, "4.30ms"},
		{2 * time.Second, "2.000s"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{3 << 20, "3.0MiB"},
		{5 << 30, "5.00GiB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.b); got != c.want {
			t.Errorf("FmtBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1: Latencies", "Operation", "Latency")
	tb.Row("Linux system call", "500ns")
	tb.Row("WebAssembly call", "17ns")
	tb.Note("measured on loopback")
	out := tb.String()
	for _, want := range []string{"Table 1", "Operation", "Linux system call", "17ns", "measured on loopback"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.Row("x", "1")
	tb.Row("longer-cell", "2")
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	// Find the two data lines; the "1" and "2" columns must start at the
	// same offset.
	var data []string
	for _, l := range lines {
		if strings.HasPrefix(l, "x") || strings.HasPrefix(l, "longer-cell") {
			data = append(data, l)
		}
	}
	if len(data) != 2 {
		t.Fatalf("found %d data lines, want 2", len(data))
	}
	if strings.Index(data[0], "1") != strings.Index(data[1], "2") {
		t.Errorf("columns misaligned:\n%s\n%s", data[0], data[1])
	}
}

// TestHistogramAllZero is the regression test for zero-duration handling:
// bucketOf(0) lands in the dedicated zero bucket and bucketMid maps it back
// to exactly 0, so a histogram of all-zero durations must report
// min=max=mean=0 and every percentile 0.
func TestHistogramAllZero(t *testing.T) {
	h := NewHistogram("zeros")
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.min != 0 || h.max != 0 || h.Mean() != 0 {
		t.Errorf("min/max/mean = %v/%v/%v, want all 0", h.min, h.max, h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) = %v, want 0", q, got)
		}
	}
}

// TestHistogramNegativeClamped: negative durations cannot occur in virtual
// time; Observe clamps them to zero so min/sum stay consistent with the
// zero bucket.
func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram("neg")
	h.Observe(-time.Second)
	h.Observe(time.Millisecond)
	if h.min != 0 {
		t.Errorf("Min = %v, want 0 (negative observation clamped)", h.min)
	}
	if sum := h.Snapshot().Sum; sum != time.Millisecond {
		t.Errorf("Sum = %v, want 1ms", sum)
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("Quantile(0.25) = %v, want 0", got)
	}
}

// TestGaugeName pins the Name accessor the metrics registry relies on.
func TestGaugeName(t *testing.T) {
	if got := NewGauge("util").Name(); got != "util" {
		t.Errorf("Name() = %q, want %q", got, "util")
	}
}
