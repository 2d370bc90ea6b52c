// Package cluster models a warehouse-scale machine: racks of nodes, each
// with CPU, memory, and accelerator capacity, with allocation accounting
// and time-weighted utilisation tracking.
//
// The model distinguishes *reserved* capacity (dedicated allocations) from
// *scavengeable* capacity (idle resources a scheduler may harvest at lower
// cost but with eviction risk), which underpins the paper's §4.2 efficiency
// argument.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Resources is a bundle of allocatable capacity.
type Resources struct {
	MilliCPU int64 // thousandths of a core
	MemMB    int64
	GPUs     int64
}

// Add returns r + s.
func (r Resources) Add(s Resources) Resources {
	return Resources{r.MilliCPU + s.MilliCPU, r.MemMB + s.MemMB, r.GPUs + s.GPUs}
}

// Sub returns r - s.
func (r Resources) Sub(s Resources) Resources {
	return Resources{r.MilliCPU - s.MilliCPU, r.MemMB - s.MemMB, r.GPUs - s.GPUs}
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.MilliCPU <= c.MilliCPU && r.MemMB <= c.MemMB && r.GPUs <= c.GPUs
}

// String renders the bundle compactly.
func (r Resources) String() string {
	return fmt.Sprintf("cpu=%dm mem=%dMB gpu=%d", r.MilliCPU, r.MemMB, r.GPUs)
}

// transient is a retryable error sentinel. cluster sits below fault and
// cannot build fault.Transient, so it satisfies fault.Classified itself.
type transient string

func (e transient) Error() string   { return string(e) }
func (e transient) Retryable() bool { return true }

// ErrNoCapacity is returned when an allocation cannot be satisfied.
var ErrNoCapacity error = transient("cluster: insufficient capacity")

// ErrNodeDown is returned when allocating on a failed machine.
var ErrNodeDown error = transient("cluster: node is down")

// Node is one machine.
type Node struct {
	ID     simnet.NodeID
	Rack   int
	Cap    Resources
	used   Resources
	down   bool
	failEv *sim.Event
	env    *sim.Env
	util   *metrics.Gauge // CPU utilisation fraction
	allocs map[*Alloc]struct{}
}

// FailEvent returns an event that fails (with ErrNodeDown) the moment the
// node goes down, letting in-flight work race completion against machine
// failure. Recovered nodes hand out a fresh, pending event.
func (n *Node) FailEvent() *sim.Event {
	if n.failEv == nil {
		n.failEv = n.env.NewEvent()
		if n.down {
			n.failEv.Fail(fmt.Errorf("%w: node %d", ErrNodeDown, n.ID))
		}
	}
	return n.failEv
}

// Free returns remaining capacity.
func (n *Node) Free() Resources { return n.Cap.Sub(n.used) }

// HasGPU reports whether the node has any GPU capacity.
func (n *Node) HasGPU() bool { return n.Cap.GPUs > 0 }

// Utilization returns the node's time-weighted average CPU utilisation
// from the start of the simulation through now.
func (n *Node) Utilization() float64 { return n.util.Avg(int64(n.env.Now())) }

// CurrentCPUFrac returns the instantaneous CPU allocation fraction.
func (n *Node) CurrentCPUFrac() float64 {
	if n.Cap.MilliCPU == 0 {
		return 0
	}
	return float64(n.used.MilliCPU) / float64(n.Cap.MilliCPU)
}

// Alloc is a live resource allocation on a node.
type Alloc struct {
	Node      *Node
	Res       Resources
	Scavenged bool // allocated from idle capacity at lower priority
	released  bool
}

// Cluster is a collection of nodes on a shared network.
type Cluster struct {
	env   *sim.Env
	net   *simnet.Network
	nodes []*Node
}

// Config describes a homogeneous cluster layout.
type Config struct {
	Racks        int
	NodesPerRack int
	NodeCap      Resources
	// GPUNodesPerRack nodes in each rack additionally get gpusPerGPUNode
	// GPUs.
	GPUNodesPerRack int
}

// gpusPerGPUNode is the GPU count of every GPU node.
const gpusPerGPUNode = 4

// DefaultConfig is a small but representative cluster: 4 racks x 16 nodes,
// 32-core/128GB nodes, 2 GPU nodes per rack with 4 GPUs each.
var DefaultConfig = Config{
	Racks:           4,
	NodesPerRack:    16,
	NodeCap:         Resources{MilliCPU: 32000, MemMB: 131072},
	GPUNodesPerRack: 2,
}

// New builds a cluster per config, registering every node on the network.
func New(env *sim.Env, net *simnet.Network, cfg Config) *Cluster {
	c := &Cluster{env: env, net: net}
	for r := 0; r < cfg.Racks; r++ {
		for i := 0; i < cfg.NodesPerRack; i++ {
			cap := cfg.NodeCap
			if i < cfg.GPUNodesPerRack {
				cap.GPUs = gpusPerGPUNode
			}
			id := net.AddNode(r)
			c.nodes = append(c.nodes, &Node{
				ID:     id,
				Rack:   r,
				Cap:    cap,
				env:    env,
				util:   metrics.NewGauge(fmt.Sprintf("node%d-util", id)),
				allocs: make(map[*Alloc]struct{}),
			})
		}
	}
	return c
}

// Env returns the simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Net returns the cluster network.
func (c *Cluster) Net() *simnet.Network { return c.net }

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given network ID, or nil.
func (c *Cluster) Node(id simnet.NodeID) *Node {
	for _, n := range c.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Allocate reserves res on node n.
func (c *Cluster) Allocate(n *Node, res Resources) (*Alloc, error) {
	return c.allocate(n, res, false)
}

// Scavenge reserves res from idle capacity on node n. Scavenged allocations
// carry eviction risk (modelled by the scheduler) and are billed at a lower
// rate by the cost package.
func (c *Cluster) Scavenge(n *Node, res Resources) (*Alloc, error) {
	return c.allocate(n, res, true)
}

func (c *Cluster) allocate(n *Node, res Resources, scavenged bool) (*Alloc, error) {
	if n.down {
		return nil, fmt.Errorf("%w: node %d", ErrNodeDown, n.ID)
	}
	if !res.Fits(n.Free()) {
		return nil, fmt.Errorf("%w: need %v, free %v on node %d", ErrNoCapacity, res, n.Free(), n.ID)
	}
	n.used = n.used.Add(res)
	n.util.Set(int64(c.env.Now()), n.CurrentCPUFrac())
	a := &Alloc{Node: n, Res: res, Scavenged: scavenged}
	n.allocs[a] = struct{}{}
	return a, nil
}

// Release returns an allocation's resources. Releasing twice is an error.
func (c *Cluster) Release(a *Alloc) error {
	if a.released {
		return errors.New("cluster: allocation already released")
	}
	a.released = true
	n := a.Node
	delete(n.allocs, a)
	n.used = n.used.Sub(a.Res)
	if n.used.MilliCPU < 0 || n.used.MemMB < 0 || n.used.GPUs < 0 {
		panic("cluster: node usage went negative")
	}
	n.util.Set(int64(c.env.Now()), n.CurrentCPUFrac())
	return nil
}

// BestFit returns the feasible node with the least free CPU after placement
// (tightest packing), preferring non-GPU nodes for GPU-less requests.
func (c *Cluster) BestFit(res Resources) *Node {
	var best *Node
	var bestFree int64 = 1 << 62
	consider := func(n *Node) {
		free := n.Free().MilliCPU - res.MilliCPU
		if free < bestFree {
			best, bestFree = n, free
		}
	}
	for _, n := range c.nodes {
		if n.down || !res.Fits(n.Free()) {
			continue
		}
		if res.GPUs == 0 && n.HasGPU() {
			continue
		}
		consider(n)
	}
	if best == nil {
		for _, n := range c.nodes {
			if !n.down && res.Fits(n.Free()) {
				consider(n)
			}
		}
	}
	return best
}

// MostIdle returns feasible nodes sorted by ascending current utilisation —
// the order a scavenging scheduler harvests idle capacity in.
func (c *Cluster) MostIdle(res Resources) []*Node {
	var fit []*Node
	for _, n := range c.nodes {
		if !n.down && res.Fits(n.Free()) {
			fit = append(fit, n)
		}
	}
	sort.SliceStable(fit, func(i, j int) bool {
		return fit[i].CurrentCPUFrac() < fit[j].CurrentCPUFrac()
	})
	return fit
}

// RandomFit returns a uniformly random feasible node, or nil.
func (c *Cluster) RandomFit(res Resources) *Node {
	var fit []*Node
	for _, n := range c.nodes {
		if !n.down && res.Fits(n.Free()) {
			fit = append(fit, n)
		}
	}
	if len(fit) == 0 {
		return nil
	}
	return fit[c.env.Rand().Intn(len(fit))]
}

// SetDown marks a machine failed or recovered. Failed machines accept no
// new allocations, and the node's FailEvent fires so in-flight work fails
// at the fault time; callers (the FaaS runtime) separately destroy the
// instances that were running there.
func (c *Cluster) SetDown(id simnet.NodeID, down bool) {
	n := c.Node(id)
	if n == nil || n.down == down {
		return
	}
	n.down = down
	if down {
		if n.failEv != nil {
			n.failEv.Fail(fmt.Errorf("%w: node %d", ErrNodeDown, id))
		}
	} else {
		n.failEv = nil // next FailEvent() call mints a fresh pending event
	}
}

// AvgUtilization returns the mean time-weighted CPU utilisation across all
// nodes through now.
func (c *Cluster) AvgUtilization() float64 {
	if len(c.nodes) == 0 {
		return 0
	}
	var s float64
	for _, n := range c.nodes {
		s += n.Utilization()
	}
	return s / float64(len(c.nodes))
}
