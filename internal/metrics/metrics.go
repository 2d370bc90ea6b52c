// Package metrics provides the measurement primitives used by the
// experiment harness: latency histograms with percentile summaries,
// counters, and time-weighted gauges for utilisation tracking.
//
// Histograms use logarithmic bucketing (HDR-style) so they cover the full
// Table 1 range — 17 ns WebAssembly calls up to millisecond RTTs — with
// bounded relative error and constant memory.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// bucketsPerDecade controls histogram resolution: relative error is about
// 1/bucketsPerDecade of a decade (~5% here).
const bucketsPerDecade = 48

// Histogram records durations in logarithmic buckets.
type Histogram struct {
	name    string
	counts  map[int]int64
	total   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	hasData bool
}

// NewHistogram returns an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, counts: make(map[int]int64)}
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// zeroBucket is the dedicated bucket for zero-duration observations, which
// have no logarithm; bucketMid maps it back to exactly 0 so the all-zero
// histogram reports min=max=mean=p50=0.
const zeroBucket = math.MinInt32

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return zeroBucket
	}
	return int(math.Floor(math.Log10(float64(d)) * bucketsPerDecade))
}

func bucketMid(b int) time.Duration {
	if b == zeroBucket {
		return 0
	}
	// Observations within half a bucket of MaxInt64 land in a bucket whose
	// midpoint overflows int64; saturate so quantiles stay monotone.
	v := math.Pow(10, (float64(b)+0.5)/bucketsPerDecade)
	if v >= math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(v)
}

// Observe records one duration. Negative durations cannot occur in virtual
// time and are clamped to zero, keeping min/max/sum consistent with the
// zero bucket they land in.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if !h.hasData || d < h.min {
		h.min = d
	}
	if !h.hasData || d > h.max {
		h.max = d
	}
	h.hasData = true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Quantile returns an approximation of the q-th quantile (0 <= q <= 1).
// Exact min/max are returned at the extremes.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var seen int64
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= rank {
			mid := bucketMid(k)
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P50 returns the median.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	n    int64
}

// NewCounter returns a zeroed counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Inc adds one occurrence.
func (c *Counter) Inc() { c.n++ }

// Add adds n occurrences.
func (c *Counter) Add(n int64) { c.n += n }

// Value returns the occurrence count.
func (c *Counter) Value() int64 { return c.n }

// Name returns the counter's label.
func (c *Counter) Name() string { return c.name }

// Gauge tracks a level over virtual time and integrates it, producing
// time-weighted averages — the right statistic for utilisation.
type Gauge struct {
	name     string
	level    float64
	lastT    int64 // virtual ns of last update
	weighted float64
	maxLevel float64
	started  bool
	startT   int64
}

// NewGauge returns a gauge at level zero.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Name returns the gauge's label.
func (g *Gauge) Name() string { return g.name }

// Set records the gauge level at virtual time nowNS.
func (g *Gauge) Set(nowNS int64, level float64) {
	if !g.started {
		g.started = true
		g.startT = nowNS
	} else {
		g.weighted += g.level * float64(nowNS-g.lastT)
	}
	g.level = level
	g.lastT = nowNS
	if level > g.maxLevel {
		g.maxLevel = level
	}
}

// Add adjusts the level by delta at time nowNS.
func (g *Gauge) Add(nowNS int64, delta float64) { g.Set(nowNS, g.level+delta) }

// Avg returns the time-weighted average level from the first Set through
// endNS. A zero-duration window (endNS == the first update, e.g. a burst
// where everything happens at one virtual instant) has no area to
// integrate; the current level is the only defensible mean, so return it
// rather than 0.
func (g *Gauge) Avg(endNS int64) float64 {
	if !g.started {
		return 0
	}
	if endNS <= g.startT {
		return g.level
	}
	w := g.weighted + g.level*float64(endNS-g.lastT)
	return w / float64(endNS-g.startT)
}

// FmtDuration renders a duration with engineering-friendly precision
// (sub-microsecond values keep nanosecond resolution).
func FmtDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// FmtBytes renders a byte count in binary units.
func FmtBytes(b int64) string {
	const k = 1024
	switch {
	case b < k:
		return fmt.Sprintf("%dB", b)
	case b < k*k:
		return fmt.Sprintf("%.1fKiB", float64(b)/k)
	case b < k*k*k:
		return fmt.Sprintf("%.1fMiB", float64(b)/(k*k))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(k*k*k))
	}
}
