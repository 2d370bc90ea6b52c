// Package nfsbase implements the stateful file-protocol baseline of §2.1:
// an NFS-style service where a client mounts once, resolves a path to a
// file handle once, and thereafter pays only a single round trip plus the
// server's media access per operation — no per-request connection setup,
// marshaling envelope, or credential re-validation.
//
// Calibration: with the DC2021 network profile and disk media the 1 KB
// uncached fetch lands at the paper's ~1.5 ms, priced at ~$0.003/M by the
// amortised-capacity book.
package nfsbase

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

// ErrStaleHandle is returned for a handle the mount did not open or whose
// file is gone.
var ErrStaleHandle = errors.New("nfsbase: stale file handle")

// framingOverhead is the per-op XDR-style framing cost — small, fixed,
// and binary, unlike the REST envelope.
const framingOverhead = 2 * time.Microsecond

// Server is an NFS-style file server.
type Server struct {
	node simnet.NodeID
	st   *store.Store
	net  *simnet.Network
	// files maps exported names to object IDs.
	files map[string]object.ID

	Ops *metrics.Counter
	Lat *metrics.Histogram
}

// NewServer exports a fresh server (in rack 0) on disk media.
func NewServer(net *simnet.Network) *Server {
	trace.Of(net.Env()).SetLabel("nfs")
	return &Server{
		node:  net.AddNode(0),
		st:    store.New(media.Disk),
		net:   net,
		files: make(map[string]object.ID),
		Ops:   metrics.NewCounter("nfs_ops"),
		Lat:   metrics.NewHistogram("nfs_latency"),
	}
}

// Export creates a file with the given content.
func (s *Server) Export(name string, content []byte) error {
	o := s.st.Create(object.Regular)
	if err := s.st.SetData(o.ID(), content); err != nil {
		return err
	}
	s.files[name] = o.ID()
	return nil
}

// Handle is an open-file handle: the protocol state the paper's REST
// baseline cannot keep.
type Handle struct {
	id    object.ID
	mount *Mount
}

// Mount is a client session with the server.
type Mount struct {
	srv    *Server
	client simnet.NodeID
	Meter  *cost.Meter
}

// Mount establishes a session: one authentication, once.
func (s *Server) Mount(p *sim.Proc, client simnet.NodeID) (*Mount, error) {
	// Session setup: handshake + one-time auth.
	p.Sleep(s.net.RTT(client, s.node))
	p.Sleep(50 * time.Microsecond)
	return &Mount{srv: s, client: client, Meter: cost.NewMeter("nfs")}, nil
}

// Lookup resolves a name to a handle (one round trip).
func (m *Mount) Lookup(p *sim.Proc, name string) (*Handle, error) {
	m.srv.net.Send(p, m.client, m.srv.node, 128)
	id, ok := m.srv.files[name]
	m.srv.net.Send(p, m.srv.node, m.client, 64)
	if !ok {
		return nil, fmt.Errorf("nfsbase: no such file %q", name)
	}
	return &Handle{id: id, mount: m}, nil
}

// Read fetches up to n bytes at off through the handle: one round trip
// plus the server's media cost. No caching (matching the paper's
// measurement setup).
func (m *Mount) Read(p *sim.Proc, h *Handle, off int64, n int) ([]byte, error) {
	if h == nil || h.mount != m {
		return nil, ErrStaleHandle
	}
	sp := trace.Of(m.srv.net.Env()).Start(p, "nfs", "read",
		trace.Int("off", off), trace.Int("n", int64(n)))
	defer sp.Close(p)
	if err := fault.Of(m.srv.net.Env()).OpFault(p, "nfs.read"); err != nil {
		return nil, err
	}
	start := p.Now()
	p.Sleep(framingOverhead)
	m.srv.net.Send(p, m.client, m.srv.node, 128)
	o, err := m.srv.st.Get(h.id)
	if err != nil {
		m.srv.net.Send(p, m.srv.node, m.client, 64)
		return nil, ErrStaleHandle
	}
	buf := make([]byte, n)
	got, err := o.ReadAt(buf, off)
	if err != nil {
		m.srv.net.Send(p, m.srv.node, m.client, 64)
		return nil, err
	}
	p.Sleep(m.srv.st.Media().ReadCost(int64(got)))
	m.srv.net.Send(p, m.srv.node, m.client, 64+got)
	m.srv.Ops.Inc()
	m.srv.Lat.Observe(p.Now().Sub(start))
	m.Meter.Charge(cost.NFSBook.ReadCost(int64(got), false))
	return buf[:got], nil
}

// Write stores data at off through the handle.
func (m *Mount) Write(p *sim.Proc, h *Handle, off int64, data []byte) error {
	if h == nil || h.mount != m {
		return ErrStaleHandle
	}
	sp := trace.Of(m.srv.net.Env()).Start(p, "nfs", "write",
		trace.Int("off", off), trace.Int("bytes", int64(len(data))))
	defer sp.Close(p)
	if err := fault.Of(m.srv.net.Env()).OpFault(p, "nfs.write"); err != nil {
		return err
	}
	start := p.Now()
	p.Sleep(framingOverhead)
	m.srv.net.Send(p, m.client, m.srv.node, 128+len(data))
	o, err := m.srv.st.Get(h.id)
	if err != nil {
		return ErrStaleHandle
	}
	if _, err := o.WriteAt(data, off); err != nil {
		return err
	}
	p.Sleep(m.srv.st.Media().WriteCost(int64(len(data))))
	m.srv.net.Send(p, m.srv.node, m.client, 64)
	m.srv.Ops.Inc()
	m.srv.Lat.Observe(p.Now().Sub(start))
	m.Meter.Charge(cost.NFSBook.WriteCost(int64(len(data))))
	return nil
}
