// Package simnet models a warehouse-scale datacenter network on top of the
// sim engine.
//
// Latency is composed of a base round-trip time (calibrated against the
// paper's Table 1 profiles), a topology factor (loopback, same rack, cross
// rack), per-message fixed overheads, serialisation delay from link
// bandwidth, and bounded random jitter. The model deliberately captures the
// quantities the paper argues about — RTT magnitudes versus protocol
// overheads — rather than packet-level detail.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeID identifies a machine in the cluster.
type NodeID int

// Profile is a named set of network latency parameters. The three standard
// profiles correspond to rows of the paper's Table 1.
type Profile struct {
	Name string
	// BaseRTT is the cross-rack round-trip time for a minimal message.
	BaseRTT time.Duration
	// Bandwidth is per-link bandwidth in bytes per second.
	Bandwidth float64
	// PerMsgOverhead is fixed per-message processing (NIC, kernel path).
	PerMsgOverhead time.Duration
	// JitterFrac bounds uniform random jitter as a fraction of latency.
	JitterFrac float64
}

// Standard profiles, calibrated to Table 1 of the paper.
var (
	// DC2005 matches "2005 data center network RTT: 1,000,000 ns".
	DC2005 = Profile{Name: "dc2005", BaseRTT: time.Millisecond, Bandwidth: 125e6, PerMsgOverhead: 10 * time.Microsecond, JitterFrac: 0.10}
	// DC2021 matches "2021 data center network RTT: 200,000 ns".
	DC2021 = Profile{Name: "dc2021", BaseRTT: 200 * time.Microsecond, Bandwidth: 1.25e9, PerMsgOverhead: 2 * time.Microsecond, JitterFrac: 0.10}
	// FastNet matches "Emerging fast network RTT: 1,000 ns".
	FastNet = Profile{Name: "fastnet", BaseRTT: time.Microsecond, Bandwidth: 12.5e9, PerMsgOverhead: 100 * time.Nanosecond, JitterFrac: 0.05}
)

// Topology distance scale factors applied to BaseRTT.
const (
	loopbackFactor = 0.01 // same node: in-kernel loopback
	sameRackFactor = 0.5  // one ToR switch hop
	crossRackFac   = 1.0  // full fabric traversal
)

// LinkFault describes injected per-message faults, produced by a fault hook
// (see SetLinkFaultFunc). The zero value means no fault.
type LinkFault struct {
	// Drop loses the first copy; the model charges a detect+retransmit
	// penalty rather than failing the send, so Send stays infallible.
	Drop bool
	// Duplicate delivers a spurious extra copy (counted in Msgs/Bytes).
	Duplicate bool
	// ExtraDelay adds a delay spike to the delivery.
	ExtraDelay time.Duration
}

// Network is a simulated datacenter fabric connecting nodes arranged in
// racks.
type Network struct {
	env     *sim.Env
	profile Profile
	racks   []int // indexed by NodeID, which AddNode hands out densely

	faultFn func(a, b NodeID, size int) LinkFault
	reachFn func(a, b NodeID) bool

	// Stats records aggregate traffic.
	Msgs  int64
	Bytes int64
	// Fault stats record injected link faults.
	Drops  int64
	Dups   int64
	Spikes int64
}

// New returns a network using the given latency profile.
func New(env *sim.Env, profile Profile) *Network {
	return &Network{env: env, profile: profile}
}

// Env returns the simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// Profile returns the active latency profile.
func (n *Network) Profile() Profile { return n.profile }

// AddNode registers a new node in the given rack and returns its ID.
func (n *Network) AddNode(rack int) NodeID {
	n.racks = append(n.racks, rack)
	return NodeID(len(n.racks) - 1)
}

// rack returns id's rack; an ID AddNode never returned reads rack 0.
func (n *Network) rack(id NodeID) int {
	if uint(id) < uint(len(n.racks)) {
		return n.racks[id]
	}
	return 0
}

// SetLinkFaultFunc installs a per-message fault hook consulted by Send.
// A nil hook (the default) injects nothing.
func (n *Network) SetLinkFaultFunc(f func(a, b NodeID, size int) LinkFault) { n.faultFn = f }

// SetReachableFunc installs a partition predicate. A nil predicate (the
// default) makes every pair reachable.
func (n *Network) SetReachableFunc(f func(a, b NodeID) bool) { n.reachFn = f }

// Reachable reports whether a can currently reach b. Protocol layers (e.g.
// replication groups) consult this to model partitions; it never affects
// Send itself, which models traffic already committed to the wire.
func (n *Network) Reachable(a, b NodeID) bool {
	if n.reachFn == nil {
		return true
	}
	return n.reachFn(a, b)
}

func (n *Network) factor(a, b NodeID) float64 {
	switch {
	case a == b:
		return loopbackFactor
	case n.rack(a) == n.rack(b):
		return sameRackFactor
	default:
		return crossRackFac
	}
}

// RTT returns the expected round-trip time between two nodes for a minimal
// message, without jitter.
func (n *Network) RTT(a, b NodeID) time.Duration {
	return time.Duration(float64(n.profile.BaseRTT) * n.factor(a, b))
}

// OneWay returns the modelled one-way delay for a message of size bytes
// from a to b, including serialisation delay, fixed overhead, and jitter.
func (n *Network) OneWay(a, b NodeID, size int) time.Duration {
	base := float64(n.RTT(a, b)) / 2
	ser := float64(size) / n.profile.Bandwidth * float64(time.Second)
	d := base + ser + float64(n.profile.PerMsgOverhead)
	if n.profile.JitterFrac > 0 {
		d += d * n.profile.JitterFrac * n.env.Rand().Float64()
	}
	return time.Duration(d)
}

// Send delivers a message of size bytes from a to b, sleeping the calling
// process for the one-way delay. When tracing is active each hop becomes a
// "net/send" span under the caller's current span.
func (n *Network) Send(p *sim.Proc, a, b NodeID, size int) {
	sp := trace.Of(n.env).Start(p, "net", "send",
		trace.Int("src", int64(a)), trace.Int("dst", int64(b)), trace.Int("bytes", int64(size)))
	p.Sleep(n.charge(sp, a, b, size))
	sp.Close(p)
}

// Post charges a message of size bytes from a to b that no process sleeps
// through, and returns its one-way delay: an engine callback chain sends
// it and schedules its next step that much later. When tracing is active
// the hop's "net/send" span opens now on track, as a root span, and the
// caller closes it on arrival (Span.CloseAt). Post and Send share one
// charge, so a posted message counts, draws jitter and meets link faults
// exactly as a sent one does.
func (n *Network) Post(track string, a, b NodeID, size int) (time.Duration, *trace.Span) {
	sp := trace.Of(n.env).Begin(track, "net", "send",
		trace.Int("src", int64(a)), trace.Int("dst", int64(b)), trace.Int("bytes", int64(size)))
	return n.charge(sp, a, b, size), sp
}

// charge counts a message of size bytes from a to b, draws its jitter and
// its injected link faults (annotating sp with them), and returns its
// one-way delay.
func (n *Network) charge(sp *trace.Span, a, b NodeID, size int) time.Duration {
	n.Msgs++
	n.Bytes += int64(size)
	d := n.OneWay(a, b, size)
	if n.faultFn != nil {
		if lf := n.faultFn(a, b, size); lf != (LinkFault{}) {
			if lf.Drop {
				// Lost first copy: detection (one RTO, modelled as the
				// un-jittered RTT) plus a retransmission taking the same
				// one-way delay again. No extra jitter draw, so the shared
				// random stream is untouched.
				n.Drops++
				d = 2*d + n.RTT(a, b)
				sp.Annotate(trace.Str("fault", "drop"))
			}
			if lf.Duplicate {
				n.Dups++
				n.Msgs++
				n.Bytes += int64(size)
				sp.Annotate(trace.Str("fault", "dup"))
			}
			if lf.ExtraDelay > 0 {
				n.Spikes++
				d += lf.ExtraDelay
				sp.Annotate(trace.Str("fault", "delay"))
			}
		}
	}
	return d
}

// Call performs a synchronous request/response exchange: request of reqSize
// from a to b, server-side work, response of respSize back. The server
// function runs in the caller's process after the request delay, modelling
// a dedicated handler. It returns the total round-trip duration.
func (n *Network) Call(p *sim.Proc, a, b NodeID, reqSize, respSize int, server func(*sim.Proc)) time.Duration {
	start := p.Now()
	n.Send(p, a, b, reqSize)
	if server != nil {
		server(p)
	}
	n.Send(p, b, a, respSize)
	return p.Now().Sub(start)
}

// String describes the network.
func (n *Network) String() string {
	return fmt.Sprintf("simnet(%s, %d nodes, rtt=%v)", n.profile.Name, len(n.racks), n.profile.BaseRTT)
}
