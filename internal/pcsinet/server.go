package pcsinet

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/capability"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Server serves a PCSI deployment over TCP. Requests are serialised
// through the deterministic simulator one at a time; each request runs as
// a fresh simulation process.
type Server struct {
	cloud  *core.Cloud
	client *core.Client
	ln     net.Listener

	mu     sync.Mutex
	tokens map[string]core.Ref
	nss    map[string]*core.NS
	fns    map[string]core.Ref

	connMu  sync.Mutex            // guards conns; frame I/O never takes mu
	conns   map[net.Conn]struct{} // live connections; nil once Close has run
	serving sync.WaitGroup        // the accept loop and one per connection
}

// NewServer wraps a deployment. Functions registered through
// RegisterFunction become invokable by token.
func NewServer(cloud *core.Cloud) *Server {
	return &Server{
		cloud:  cloud,
		client: cloud.NewClient(0),
		tokens: make(map[string]core.Ref),
		nss:    make(map[string]*core.NS),
		fns:    make(map[string]core.Ref),
	}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for tests)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln, s.conns = ln, make(map[net.Conn]struct{})
	s.serving.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close closes the listener and every connection, then waits for the
// accept loop and each connection's goroutine to return. A request already
// in dispatch finishes first; its reply is lost with its connection.
func (s *Server) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	s.connMu.Unlock()
	s.serving.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.serving.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.conns == nil { // accepted as Close ran
			conn.Close()
		} else {
			s.conns[conn] = struct{}{}
			s.serving.Add(1)
			go s.serveConn(conn)
		}
		s.connMu.Unlock()
	}
}

// serveConn answers a connection's frames in order. It reads outside mu,
// through a bufio.Reader: a frame's prefix and payload arrive in one read.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
		s.serving.Done()
	}()
	r := bufio.NewReader(conn)
	for {
		req, err := ReadFrame(r)
		if err != nil {
			return
		}
		resp := s.dispatch(req)
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// newToken mints an unguessable token.
func newToken(prefix string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// call is one request's state: what dispatch resolved for the row, the
// process the row runs on, and the reply it builds. It is one heap value
// handed down by pointer, and run (below) makes the row the process body
// with no closure in between: every request starts on a fresh goroutine
// stack, and the path from there to core.Client.Get sits at a
// stack-growth cliff — passing request/reply by value through the row
// cost +50% per dispatch in runtime.copystack (see DESIGN.md).
type call struct {
	s   *Server
	req *wire.Message
	p   *sim.Proc // nil for a local row
	ref core.Ref  // what a ref or fn key names
	ns  *core.NS  // what an ns key names

	body    []byte
	headers map[string]string
	grant   core.Ref // the reference a granting row returns

	err  error
	done bool
}

// h returns a request header ("" when absent).
func (c *call) h(k string) string { return c.req.Headers[k] }

// runSim executes run(c) as a simulation process and drives the clock
// until it finishes. The whole server shares one virtual timeline.
func (s *Server) runSim(c *call, run func(*call) error) error {
	env := s.cloud.Env()
	env.Go("rpc", func(p *sim.Proc) {
		c.p = p
		c.err = run(c)
		c.done = true
	})
	for !c.done && env.Pending() > 0 {
		env.RunUntil(env.Now().Add(10 * time.Millisecond))
	}
	if !c.done {
		return fault.Fatal("pcsinet: request did not complete")
	}
	return c.err
}

// RegisterFunction registers a handler on the deployment and returns the
// token clients invoke it by.
func (s *Server) RegisterFunction(cfg core.FnConfig) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &call{s: s}
	err := s.runSim(c, func(c *call) (err error) {
		c.ref, err = s.client.RegisterFunction(c.p, cfg)
		return err
	})
	if err != nil {
		return "", err
	}
	tok := newToken("fn")
	s.fns[tok] = c.ref
	return tok, nil
}

// The protocol's string forms of kinds, consistency levels, mutability
// levels and rights, matched case-insensitively.
var (
	kinds = map[string]object.Kind{
		"": object.Regular, "regular": object.Regular, "file": object.Regular,
		"directory": object.Directory, "dir": object.Directory,
		"fifo": object.FIFO, "socket": object.Socket, "device": object.Device,
	}
	levels = map[string]consistency.Level{
		"": consistency.Linearizable, "linearizable": consistency.Linearizable, "strong": consistency.Linearizable,
		"eventual": consistency.Eventual, "weak": consistency.Eventual,
	}
	mutabilities = map[string]object.Mutability{
		"": object.Mutable, "mutable": object.Mutable, "append_only": object.AppendOnly,
		"fixed_size": object.FixedSize, "immutable": object.Immutable,
	}
	rights = map[string]capability.Rights{
		"read": capability.Read, "write": capability.Write, "append": capability.Append,
		"exec": capability.Exec, "setmut": capability.SetMut, "grant": capability.Grant,
		"unlink": capability.Unlink, "destroy": capability.Destroy,
	}
)

// parse looks s up among the string forms of what.
func parse[T any](what string, forms map[string]T, s string) (T, error) {
	v, ok := forms[strings.ToLower(s)]
	if !ok {
		return v, fault.Fatalf("unknown %s %q", what, s)
	}
	return v, nil
}

// parseRights reads "read|write|..."; "" and "all" are every right.
func parseRights(sr string) (capability.Rights, error) {
	if sr == "" || sr == "all" {
		return capability.All, nil
	}
	var r capability.Rights
	for _, part := range strings.Split(sr, "|") {
		bit, err := parse("right", rights, strings.TrimSpace(part))
		if err != nil {
			return 0, err
		}
		r |= bit
	}
	return r, nil
}

// sockEnd reads the "end" header of a socket op.
func (c *call) sockEnd() int {
	if e := c.h("end"); e == "server" || e == "1" {
		return core.ServerEnd
	}
	return core.ClientEnd
}

// refs resolves a comma-separated header of reference tokens.
func (c *call) refs(header string) ([]core.Ref, error) {
	var out []core.Ref
	for _, tok := range strings.Split(c.h(header), ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		ref, ok := c.s.tokens[tok]
		if !ok {
			return nil, keyRef.unknown(tok)
		}
		out = append(out, ref)
	}
	return out, nil
}

// keyKind says what a request's Key must name before its row runs.
type keyKind string

const (
	keyRef keyKind = "reference"
	keyNS  keyKind = "namespace"
	keyFn  keyKind = "function"
)

// unknown is the refusal of a token that names nothing of kind k.
func (k keyKind) unknown(tok string) error { return fault.Fatalf("unknown %s token %q", k, tok) }

// op is one protocol operation: what its Key names, the body that serves
// it — as a simulation process, or directly when local (the op touches
// only server-side tables and takes no virtual time) — and the reply
// header under which dispatch returns a token for the reference the body
// grants ("" when it grants none).
type op struct {
	key    keyKind
	local  bool
	grants string
	run    func(c *call) error
}

// ops is the protocol. A new operation is a constant in protocol.go, a row
// here, a Client method and a pcsictl verb; tests range over all four.
var ops = map[string]op{
	OpCreate: {grants: "token", run: func(c *call) error {
		kind, err := parse("kind", kinds, c.h("kind"))
		if err != nil {
			return err
		}
		lvl, err := parse("consistency", levels, c.h("consistency"))
		if err != nil {
			return err
		}
		mut, err := parse("mutability", mutabilities, c.h("mutability"))
		if err != nil {
			return err
		}
		opts := []core.CreateOpt{core.WithConsistency(lvl), core.WithMutability(mut)}
		if c.h("ephemeral") == "true" {
			opts = append(opts, core.WithEphemeral())
		}
		c.grant, err = c.s.client.Create(c.p, kind, opts...)
		return err
	}},
	// The body is the frame's own array (ReadFrame, Decode): share it.
	OpPut:    {key: keyRef, run: func(c *call) error { return c.s.client.PutShared(c.p, c.ref, c.req.Body) }},
	OpAppend: {key: keyRef, run: func(c *call) error { return c.s.client.Append(c.p, c.ref, c.req.Body) }},
	// The body only goes to the wire, after mu is released: a view (View)
	// that later writes never change, since the object copies first.
	OpGet: {key: keyRef, run: func(c *call) (err error) {
		c.body, err = c.s.client.View(c.p, c.ref)
		return err
	}},
	OpFreeze: {key: keyRef, run: func(c *call) error {
		mut, err := parse("mutability", mutabilities, c.h("level"))
		if err != nil {
			return err
		}
		return c.s.client.Freeze(c.p, c.ref, mut)
	}},
	OpStat: {key: keyRef, run: func(c *call) error {
		info, err := c.s.client.Stat(c.p, c.ref)
		if err != nil {
			return err
		}
		c.headers = map[string]string{
			"kind":       info.Kind.String(),
			"size":       strconv.FormatInt(info.Size, 10),
			"version":    strconv.FormatUint(info.Version, 10),
			"mutability": info.Mutability.String(),
		}
		return nil
	}},
	OpAttenu: {key: keyRef, local: true, grants: "token", run: func(c *call) error {
		rights, err := parseRights(c.h("rights"))
		if err != nil {
			return err
		}
		c.grant, err = c.s.client.Attenuate(c.ref, rights)
		return err
	}},
	OpDrop: {key: keyRef, local: true, run: func(c *call) error {
		c.s.client.Drop(c.ref)
		delete(c.s.tokens, c.req.Key)
		return nil
	}},
	OpMkdirNS: {grants: "root", run: func(c *call) error {
		ns, root, err := c.s.client.NewNamespace(c.p)
		if err != nil {
			return err
		}
		tok := newToken("ns")
		c.s.nss[tok] = ns
		c.headers = map[string]string{"token": tok}
		c.grant = root
		return nil
	}},
	OpCreateAt: {key: keyNS, grants: "token", run: func(c *call) error {
		kind, err := parse("kind", kinds, c.h("kind"))
		if err != nil {
			return err
		}
		c.grant, err = c.ns.CreateAt(c.p, c.s.client, c.h("path"), kind)
		return err
	}},
	OpOpen: {key: keyNS, grants: "token", run: func(c *call) error {
		rights, err := parseRights(c.h("rights"))
		if err != nil {
			return err
		}
		c.grant, err = c.ns.Open(c.p, c.s.client, c.h("path"), rights)
		return err
	}},
	OpList: {key: keyNS, run: func(c *call) error {
		names, err := c.ns.List(c.p, c.s.client, c.h("path"))
		c.body = []byte(strings.Join(names, "\n"))
		return err
	}},
	OpRemove: {key: keyNS, run: func(c *call) error { return c.ns.Remove(c.p, c.s.client, c.h("path")) }},
	OpInvoke: {key: keyFn, run: func(c *call) error {
		inputs, err := c.refs("inputs")
		if err != nil {
			return err
		}
		outputs, err := c.refs("outputs")
		if err != nil {
			return err
		}
		_, err = c.s.client.Invoke(c.p, c.ref, core.InvokeArgs{Inputs: inputs, Outputs: outputs, Body: c.req.Body})
		return err
	}},
	OpSockSend: {key: keyRef, run: func(c *call) error {
		return c.s.client.SockSend(c.p, c.ref, c.sockEnd(), c.req.Body)
	}},
	OpSockRecv: {key: keyRef, run: func(c *call) (err error) {
		c.body, err = c.s.client.SockRecv(c.p, c.ref, c.sockEnd())
		return err
	}},
	OpSockEnd: {key: keyRef, run: func(c *call) error { return c.s.client.SockClose(c.p, c.ref) }},
	OpStats: {local: true, run: func(c *call) error {
		cloud := c.s.cloud
		c.headers = map[string]string{
			"invocations": strconv.FormatInt(cloud.Runtime().Invocations.Value(), 10),
			"cold_starts": strconv.FormatInt(cloud.Runtime().ColdStarts.Value(), 10),
			"bytes_moved": strconv.FormatInt(cloud.BytesMoved, 10),
			"cache_hits":  strconv.FormatInt(cloud.CacheHits, 10),
			"virtual_now": cloud.Env().Now().String(),
		}
		return nil
	}},
}

// dispatch handles one request under the server lock (requests share one
// deterministic timeline, so they serialise): look the row up, resolve
// what its key names, run it, mint a token for a returned reference.
func (s *Server) dispatch(req *wire.Message) *wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := ops[req.Op]
	if !ok {
		return errResp(fault.Fatalf("unknown op %q", req.Op))
	}
	c := &call{s: s, req: req}
	switch row.key {
	case keyRef:
		c.ref, ok = s.tokens[req.Key]
	case keyNS:
		c.ns, ok = s.nss[req.Key]
	case keyFn:
		c.ref, ok = s.fns[req.Key]
	}
	if !ok {
		return errResp(row.key.unknown(req.Key))
	}
	var err error
	if row.local {
		err = row.run(c)
	} else {
		err = s.runSim(c, row.run)
	}
	if err != nil {
		return errResp(err)
	}
	if row.grants != "" {
		if c.headers == nil {
			c.headers = make(map[string]string, 1)
		}
		tok := newToken("ref")
		s.tokens[tok] = c.grant
		c.headers[row.grants] = tok
	}
	return &wire.Message{Status: StatusOK, Body: c.body, Headers: c.headers}
}
