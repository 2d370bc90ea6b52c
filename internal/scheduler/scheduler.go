// Package scheduler implements instance placement policies for the FaaS
// runtime, embodying the paper's §4 arguments:
//
//   - Naive places every instance on a random feasible node — the
//     strawman whose data always moves through remote storage.
//   - Packed bin-packs (best fit) for density.
//   - Colocate uses task-graph knowledge to place consumers next to
//     producers, reducing data movement "to a single cudaMemcpy" (§4.1).
//   - Scavenge harvests the most-idle nodes' spare capacity at spot
//     pricing, trading eviction risk for cost (§4.2).
package scheduler

import (
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Naive places instances uniformly at random among feasible nodes.
type Naive struct{ C *cluster.Cluster }

// Place implements faas.Placer.
func (s Naive) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	return s.C.RandomFit(res), false
}

// Packed bin-packs with best fit.
type Packed struct{ C *cluster.Cluster }

// Place implements faas.Placer.
func (s Packed) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	return s.C.BestFit(res), false
}

// Colocate honours NearNode hints when the hinted node has capacity,
// falling back to best fit. This is the task-graph-aware policy of §4.1.
type Colocate struct{ C *cluster.Cluster }

// Place implements faas.Placer.
func (s Colocate) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	if hints.PreferGPUNode && !hints.HasNear {
		for _, n := range s.C.Nodes() {
			if n.HasGPU() && res.Fits(n.Free()) {
				return n, false
			}
		}
	}
	if hints.HasNear {
		if n := s.C.Node(hints.NearNode); n != nil && res.Fits(n.Free()) {
			return n, false
		}
		// Second choice: any node in the same rack.
		if near := s.C.Node(hints.NearNode); near != nil {
			for _, n := range s.C.Nodes() {
				if n.Rack == near.Rack && res.Fits(n.Free()) {
					if res.GPUs > 0 && !n.HasGPU() {
						continue
					}
					return n, false
				}
			}
		}
	}
	return s.C.BestFit(res), false
}

// Scavenge spreads work onto the least-utilised nodes and marks the
// allocations as harvested (billed at spot rates, subject to preemption).
type Scavenge struct {
	C *cluster.Cluster
	// Fallback places normally when no idle capacity exists.
	Fallback faas.Placer
}

// Place implements faas.Placer.
func (s Scavenge) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	idle := s.C.MostIdle(res)
	for _, n := range idle {
		// Only scavenge genuinely underutilised nodes.
		if n.CurrentCPUFrac() < 0.5 {
			return n, true
		}
	}
	if s.Fallback != nil {
		return s.Fallback.Place(res, hints)
	}
	if len(idle) > 0 {
		return idle[0], true
	}
	return nil, false
}

// Traced decorates any placer with tracing: every placement decision
// becomes an instant "sched/place" event on the scheduler track, recording
// the chosen node (or a miss) and whether capacity was scavenged. A nil
// tracer (tracing off) makes it a transparent pass-through.
type Traced struct {
	Env   *sim.Env
	Inner faas.Placer
}

// Place implements faas.Placer.
func (s Traced) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	node, scavenged := s.Inner.Place(res, hints)
	// Capacity for all four up front: the appends below never grow it, so
	// the slice stays on the stack and an untraced placement allocates nothing.
	attrs := append(make([]trace.Attr, 0, 4), trace.Int("cpu_m", res.MilliCPU), trace.Int("gpus", res.GPUs))
	if node != nil {
		attrs = append(attrs, trace.Int("node", int64(node.ID)))
	} else {
		attrs = append(attrs, trace.Str("node", "none"))
	}
	if scavenged {
		attrs = append(attrs, trace.Str("scavenged", "true"))
	}
	trace.Of(s.Env).Instant("scheduler", "sched", "place", attrs...)
	return node, scavenged
}

// GPUAware wraps another policy, forcing GPU requests onto GPU nodes
// near the hint when possible.
type GPUAware struct {
	C     *cluster.Cluster
	Inner faas.Placer
}

// Place implements faas.Placer.
func (s GPUAware) Place(res cluster.Resources, hints faas.PlacementHints) (*cluster.Node, bool) {
	if res.GPUs > 0 && hints.HasNear {
		near := s.C.Node(hints.NearNode)
		if near != nil {
			if near.HasGPU() && res.Fits(near.Free()) {
				return near, false
			}
			for _, n := range s.C.Nodes() {
				if n.HasGPU() && n.Rack == near.Rack && res.Fits(n.Free()) {
					return n, false
				}
			}
		}
	}
	return s.Inner.Place(res, hints)
}
