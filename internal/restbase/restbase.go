// Package restbase implements the web-services baseline of §2.1: a
// stateless REST gateway in front of the replicated store.
//
// Every request pays the costs the paper attributes to today's cloud
// APIs, each row traceable to Table 1:
//
//   - per-request connection establishment (statelessness ⇒ no session):
//     socket overhead (5 µs) plus a TCP handshake round trip;
//   - HTTP protocol processing (50 µs);
//   - JSON envelope marshaling (>50 µs per KB);
//   - per-request authentication and access-control re-checks against a
//     remote auth service ("statelessness ... has consequences such as
//     repeated access control checks");
//   - internal request routing hops (load balancer, request router)
//     before the storage backend is reached.
//
// The same package also provides real (wall-clock) loopback HTTP and TCP
// helpers used by the Table 1 measured benchmarks.
package restbase

import (
	"errors"
	"time"

	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Table 1 calibrated protocol constants.
const (
	// SocketOverhead is Table 1's "Socket overhead: 5,000 ns", paid on
	// every connection the stateless protocol opens.
	SocketOverhead = 5 * time.Microsecond
	// HTTPOverhead is Table 1's "HTTP protocol: 50,000 ns", paid per
	// request and per response.
	HTTPOverhead = 50 * time.Microsecond
)

// ErrAuth is returned when the per-request credential check fails.
var ErrAuth = errors.New("restbase: authentication failed")

// ErrThrottled is the opaque 429 of §2.1's web-services world: the
// gateway says only "slow down", carrying no queue state, no retry
// budget, no per-tenant signal. Clients invariably answer with retries —
// the amplification loop E13 measures. Contrast qos.ErrOverload, which
// the retry layer classifies as a final answer.
var ErrThrottled = errors.New("restbase: too many requests (429)")

// Config tunes a Gateway.
type Config struct {
	// Codec marshals requests and responses (JSON for the REST baseline).
	Codec wire.Codec
	// RoutingHops is the number of internal hops (LB, request router)
	// between the front door and storage.
	RoutingHops int
	// PerHopProcess is the service time at each internal hop.
	PerHopProcess time.Duration
	// ReuseConnections enables keep-alive (ablation: isolates the
	// connection-setup share of the overhead).
	ReuseConnections bool
	// RawBody streams payloads as raw HTTP bodies (object-store style):
	// only the envelope is marshaled. When false the body rides inside
	// the JSON envelope (KV-API style), paying marshal cost on every
	// byte.
	RawBody bool
	// Workers bounds the gateway's application worker pool: requests past
	// connect/auth/routing queue FIFO for a worker. 0 (the default) keeps
	// the historical unbounded gateway byte-identical.
	Workers int
	// AppExec is the per-request application service time a worker spends
	// beyond the storage op (only meaningful with Workers > 0).
	AppExec time.Duration
	// MaxInflight caps workers-in-use plus queued requests; beyond it the
	// gateway answers ErrThrottled — the opaque 429. 0 = never throttle.
	MaxInflight int
	// RejectCost is the worker time spent producing each 429 (the reject
	// path still parses, authenticates, and formats an error response).
	// This is what melts real gateways under retry storms: rejections
	// compete with useful work for the same workers.
	RejectCost time.Duration
}

// authCheck is the service time of the auth service's validation.
const authCheck = 50 * time.Microsecond

// DefaultConfig returns the REST baseline configuration.
func DefaultConfig() Config {
	return Config{
		Codec:         wire.JSONCodec{},
		RoutingHops:   2,
		PerHopProcess: 300 * time.Microsecond,
	}
}

// Gateway is a simulated REST front door over a replicated store.
type Gateway struct {
	cfg  Config
	env  *sim.Env
	net  *simnet.Network
	grp  *consistency.Group
	node simnet.NodeID // front door
	auth simnet.NodeID // auth service

	// workers is the bounded application pool (nil when Workers == 0).
	workers *sim.Resource

	// Metrics.
	Requests *metrics.Counter
	Lat      *metrics.Histogram
	// Throttled counts 429 responses (E13's overload baseline).
	Throttled *metrics.Counter
	// AuthChecks counts remote credential validations (E8).
	AuthChecks int64
}

// NewGateway attaches a gateway (in rack 0) to the given replicated store.
func NewGateway(net *simnet.Network, grp *consistency.Group, cfg Config) *Gateway {
	if cfg.Codec == nil {
		cfg.Codec = wire.JSONCodec{}
	}
	trace.Of(net.Env()).SetLabel("rest")
	g := &Gateway{
		cfg:       cfg,
		env:       net.Env(),
		net:       net,
		grp:       grp,
		node:      net.AddNode(0),
		auth:      net.AddNode(1),
		Requests:  metrics.NewCounter("rest_requests"),
		Lat:       metrics.NewHistogram("rest_latency"),
		Throttled: metrics.NewCounter("rest_throttled"),
	}
	if cfg.Workers > 0 {
		g.workers = g.env.NewResource("rest-workers", int64(cfg.Workers))
	}
	return g
}

// connect pays connection establishment unless keep-alive is on.
func (g *Gateway) connect(p *sim.Proc, client simnet.NodeID) {
	if g.cfg.ReuseConnections {
		return
	}
	// TCP handshake: one full round trip plus socket setup at both ends.
	p.Sleep(2 * SocketOverhead)
	p.Sleep(g.net.RTT(client, g.node))
}

// authenticate re-validates the bearer token against the remote auth
// service — the stateless API cannot remember prior checks.
func (g *Gateway) authenticate(p *sim.Proc, creds string) error {
	g.AuthChecks++
	g.net.Send(p, g.node, g.auth, 256)
	p.Sleep(authCheck)
	g.net.Send(p, g.auth, g.node, 64)
	if creds == "" {
		return ErrAuth
	}
	return nil
}

// route pays the internal routing hops between front door and storage.
func (g *Gateway) route(p *sim.Proc) {
	for i := 0; i < g.cfg.RoutingHops; i++ {
		p.Sleep(g.net.Profile().BaseRTT) // hop round trip inside the fabric
		p.Sleep(g.cfg.PerHopProcess)
	}
}

// request runs the common protocol path around op, charging overheads for
// a request with reqBody bytes in and respBody bytes out. Traced runs
// decompose the request into the paper's §2.1 cost components: connect,
// marshal, HTTP processing, auth, routing, then the storage op itself.
func (g *Gateway) request(p *sim.Proc, client simnet.NodeID, creds string, reqBody, respBody int, op func() error) error {
	tr := trace.Of(g.env)
	sp := tr.Start(p, "rest", "request", trace.Int("client", int64(client)))
	defer sp.Close(p)
	start := p.Now()
	g.Requests.Inc()
	if err := fault.Of(g.env).OpFault(p, "rest.request"); err != nil {
		sp.Annotate(trace.Str("err", err.Error()))
		return err
	}
	csp := tr.Start(p, "rest.connect", "connect")
	g.connect(p, client)
	csp.Close(p)
	// Request: marshal at client, send, HTTP parse at gateway.
	msp := tr.Start(p, "rest.marshal", "marshal")
	p.Sleep(g.cfg.Codec.ModelCost(g.codedBytes(reqBody)))
	msp.Close(p)
	g.net.Send(p, client, g.node, 512+reqBody)
	hsp := tr.Start(p, "rest.http", "http")
	p.Sleep(HTTPOverhead)
	hsp.Close(p)
	asp := tr.Start(p, "rest.auth", "auth")
	err := g.authenticate(p, creds)
	asp.Close(p)
	if err != nil {
		g.net.Send(p, g.node, client, 256)
		return err
	}
	rsp := tr.Start(p, "rest.route", "route")
	g.route(p)
	rsp.Close(p)
	if g.workers != nil {
		if g.cfg.MaxInflight > 0 && int(g.workers.InUse())+g.workers.Queued() >= g.cfg.MaxInflight {
			// Opaque 429: the client learns nothing but "slow down". The
			// rejection still consumes worker time — the request was already
			// parsed, authenticated, and routed, and the error response must
			// be formatted — so under a retry storm rejections compete with
			// useful work for the same pool.
			g.Throttled.Inc()
			sp.Annotate(trace.Str("err", "429"))
			if g.cfg.RejectCost > 0 {
				g.workers.Acquire(p, 1)
				p.Sleep(g.cfg.RejectCost)
				g.workers.Release(1)
			}
			g.net.Send(p, g.node, client, 256)
			return ErrThrottled
		}
		wsp := tr.Start(p, "rest.queue", "worker")
		g.workers.Acquire(p, 1)
		wsp.Close(p)
		defer g.workers.Release(1)
		if g.cfg.AppExec > 0 {
			p.Sleep(g.cfg.AppExec)
		}
	}
	if err := op(); err != nil {
		g.net.Send(p, g.node, client, 256)
		return err
	}
	// Response: HTTP format, marshal, send.
	hsp = tr.Start(p, "rest.http", "http")
	p.Sleep(HTTPOverhead)
	hsp.Close(p)
	msp = tr.Start(p, "rest.marshal", "marshal")
	p.Sleep(g.cfg.Codec.ModelCost(g.codedBytes(respBody)))
	msp.Close(p)
	g.net.Send(p, g.node, client, 512+respBody)
	g.Lat.Observe(p.Now().Sub(start))
	return nil
}

// codedBytes returns how many payload bytes pass through the codec.
func (g *Gateway) codedBytes(body int) int {
	if g.cfg.RawBody {
		return 0 // envelope only; the body streams raw
	}
	return body
}

// Get fetches an object through the REST path. The result is a read-only
// view of the replica's payload, not a copy: the caller must not write
// into it. It never changes, since the object copies before it writes
// bytes a view holds (object.Snapshot).
func (g *Gateway) Get(p *sim.Proc, client simnet.NodeID, creds string, id object.ID, lvl consistency.Level) ([]byte, error) {
	var data []byte
	err := g.request(p, client, creds, 0, g.sizeOf(id), func() error {
		return g.grp.View(p, g.node, id, lvl, func(o *object.Object) error {
			data = o.Snapshot()
			return nil
		})
	})
	return data, err
}

// Put stores an object through the REST path.
func (g *Gateway) Put(p *sim.Proc, client simnet.NodeID, creds string, id object.ID, data []byte, lvl consistency.Level) error {
	err := g.request(p, client, creds, len(data), 0, func() error {
		return g.grp.Apply(p, g.node, id, lvl, len(data), func(o *object.Object) error {
			return o.SetData(data)
		})
	})
	return err
}

// Create allocates an object through the REST path.
func (g *Gateway) Create(p *sim.Proc, client simnet.NodeID, creds string, kind object.Kind) (object.ID, error) {
	var id object.ID
	err := g.request(p, client, creds, 0, 0, func() error {
		var cerr error
		id, cerr = g.grp.Create(p, g.node, kind)
		return cerr
	})
	return id, err
}

func (g *Gateway) sizeOf(id object.ID) int {
	if o, err := g.grp.Primary0Store().Get(id); err == nil {
		return int(o.Size())
	}
	return 0
}

// ProtocolOverhead computes the fixed per-request protocol cost of a
// configuration without a live gateway.
func ProtocolOverhead(cfg Config, bodySize int) time.Duration {
	codec := cfg.Codec
	if codec == nil {
		codec = wire.JSONCodec{}
	}
	if cfg.RawBody {
		bodySize = 0
	}
	d := 2*HTTPOverhead + codec.ModelCost(bodySize) + codec.ModelCost(0)
	if !cfg.ReuseConnections {
		d += 2 * SocketOverhead
	}
	d += authCheck
	d += time.Duration(cfg.RoutingHops) * cfg.PerHopProcess
	return d
}
