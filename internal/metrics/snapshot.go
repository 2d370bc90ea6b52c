// Snapshot types: immutable copies of the live metrics, built for the
// observability sampler (internal/obs). A sampler that runs at a fixed
// virtual-time interval wants two operations the live types do not offer:
// a cheap point-in-time copy (Snapshot) and the difference of two copies
// to isolate one window (Delta).
//
// HistSnapshot deliberately drops the exact min/max the live Histogram
// tracks: quantiles are answered from bucket midpoints alone. That loses
// the end-point clamping Histogram.Quantile performs but makes Delta(prev)
// exact, which the property tests in snapshot_test.go pin down.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Bucket is one (bucket index, count) cell of a histogram snapshot.
type Bucket struct {
	B int   // logarithmic bucket index (zeroBucket for the zero bucket)
	N int64 // observations in the bucket
}

// HistSnapshot is an immutable copy of a histogram's bucket counts, sorted
// by bucket index. The zero value is an empty snapshot.
type HistSnapshot struct {
	Buckets []Bucket // ascending by B
	Total   int64
	Sum     time.Duration
}

// Snapshot copies the histogram's current state. The result shares no
// storage with the live histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Total: h.total, Sum: h.sum}
	if len(h.counts) == 0 {
		return s
	}
	s.Buckets = make([]Bucket, 0, len(h.counts))
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s.Buckets = append(s.Buckets, Bucket{B: k, N: h.counts[k]})
	}
	return s
}

// Delta returns the window s minus prev, where prev must be an earlier
// snapshot of the same histogram (every prev bucket count <= the matching
// s count).
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Total: s.Total - prev.Total, Sum: s.Sum - prev.Sum}
	j := 0
	for _, b := range s.Buckets {
		n := b.N
		for j < len(prev.Buckets) && prev.Buckets[j].B < b.B {
			j++
		}
		if j < len(prev.Buckets) && prev.Buckets[j].B == b.B {
			n -= prev.Buckets[j].N
			j++
		}
		if n > 0 {
			out.Buckets = append(out.Buckets, Bucket{B: b.B, N: n})
		}
	}
	return out
}

// Quantile approximates the q-th quantile of the window from bucket
// midpoints (no exact min/max clamping — see the package comment).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.N
		if seen >= rank {
			return bucketMid(b.B)
		}
	}
	return bucketMid(s.Buckets[len(s.Buckets)-1].B)
}

// P50, P95 and P99 are convenience quantile accessors.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P95 returns the windowed 95th percentile.
func (s HistSnapshot) P95() time.Duration { return s.Quantile(0.95) }

// P99 returns the windowed 99th percentile.
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// CounterSnapshot is a point-in-time copy of a Counter.
type CounterSnapshot struct {
	N int64
}

// Snapshot copies the counter's current state.
func (c *Counter) Snapshot() CounterSnapshot {
	return CounterSnapshot{N: c.n}
}

// Delta returns the window s minus prev (an earlier snapshot of the same
// counter).
func (s CounterSnapshot) Delta(prev CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{N: s.N - prev.N}
}

// GaugeSnapshot is a point-in-time copy of a Gauge's level and peak.
type GaugeSnapshot struct {
	Level float64
	Max   float64
}

// Snapshot copies the gauge's current level and high-water mark.
func (g *Gauge) Snapshot() GaugeSnapshot {
	return GaugeSnapshot{Level: g.level, Max: g.maxLevel}
}
