package pcsinet

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/platform"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Media = media.DRAM
	srv := NewServer(core.New(opts))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestCreatePutGetOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "linearizable", "MUTABLE", false)
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" {
		t.Fatal("empty token")
	}
	if err := cl.Put(tok, []byte("network payload")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(tok)
	if err != nil || !bytes.Equal(got, []byte("network payload")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

// TestPutHandsTheFrameOver: OpPut gives the request frame's own array to the
// object, so the object's later appends, and the frames read after it on the
// same connection, must leave each object's bytes exact.
func TestPutHandsTheFrameOver(t *testing.T) {
	_, cl := startServer(t)
	first, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(first, []byte("first payload")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Append(first, []byte("+tail")); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Get(first); err != nil || string(got) != "first payload+tail" {
		t.Fatalf("Get after put and append = %q, %v", got, err)
	}
	if err := cl.Put(second, []byte("SECOND PAYLOAD")); err != nil {
		t.Fatal(err)
	}
	for tok, want := range map[string]string{first: "first payload+tail", second: "SECOND PAYLOAD"} {
		if got, err := cl.Get(tok); err != nil || string(got) != want {
			t.Errorf("Get after a second put = %q, %v; want %q", got, err, want)
		}
	}
}

func TestStatAndFreeze(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(tok, make([]byte, 123)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Freeze(tok, "IMMUTABLE"); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Stat(tok)
	if err != nil {
		t.Fatal(err)
	}
	if info["size"] != "123" || info["mutability"] != "IMMUTABLE" {
		t.Errorf("Stat = %v", info)
	}
	if err := cl.Put(tok, []byte("x")); err == nil {
		t.Error("write to frozen object over TCP succeeded")
	}
}

func TestAttenuationOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := cl.Attenuate(tok, "read")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ro, []byte("x")); err == nil {
		t.Error("write through read-only token succeeded")
	}
	if _, err := cl.Get(ro); err != nil {
		t.Errorf("read through read-only token failed: %v", err)
	}
	// Amplification must fail.
	if _, err := cl.Attenuate(ro, "read|write"); err == nil {
		t.Error("amplification over TCP succeeded")
	}
}

func TestUnknownTokenRejected(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Get("ref-forged"); err == nil {
		t.Error("forged token accepted")
	}
	if err := cl.Put("", nil); err == nil {
		t.Error("empty token accepted")
	}
}

func TestNamespaceOverTCP(t *testing.T) {
	_, cl := startServer(t)
	ns, root, err := cl.NewNamespace()
	if err != nil {
		t.Fatal(err)
	}
	if ns == "" || root == "" {
		t.Fatal("missing tokens")
	}
	if _, err := cl.CreateAt(ns, "data/a.txt", "regular"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateAt(ns, "data/b.txt", "regular"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.List(ns, "data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.txt" || names[1] != "b.txt" {
		t.Errorf("List = %v", names)
	}
	wtok, err := cl.Open(ns, "data/a.txt", "read|write")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(wtok, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	rtok, err := cl.Open(ns, "data/a.txt", "read")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(rtok)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := cl.Remove(ns, "data/b.txt"); err != nil {
		t.Fatal(err)
	}
	names, err = cl.List(ns, "data")
	if err != nil || len(names) != 1 {
		t.Errorf("List after remove = %v, %v", names, err)
	}
}

func TestInvokeOverTCP(t *testing.T) {
	srv, cl := startServer(t)
	fnTok, err := srv.RegisterFunction(core.FnConfig{
		Name: "upper", Kind: platform.Wasm,
		Handler: func(fc *core.FnCtx) error {
			in, err := fc.Client.Get(fc.Proc(), fc.Inputs[0])
			if err != nil {
				return err
			}
			return fc.Client.Put(fc.Proc(), fc.Outputs[0], bytes.ToUpper(in))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(in, []byte("shout")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Invoke(fnTok, []string{in}, []string{out}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(out)
	if err != nil || string(got) != "SHOUT" {
		t.Fatalf("function output = %q, %v", got, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["invocations"] != "1" {
		t.Errorf("stats = %v", stats)
	}
}

func TestDropOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Drop(tok); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(tok); err == nil {
		t.Error("dropped token still works")
	}
}

func TestBadRequests(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Create("alien-kind", "", "", false); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := cl.Create("regular", "quantum", "", false); err == nil {
		t.Error("bad consistency accepted")
	}
	if _, err := cl.Create("regular", "", "SOMETIMES", false); err == nil {
		t.Error("bad mutability accepted")
	}
	if _, err := cl.call("warp", "", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestEphemeralOverTCP(t *testing.T) {
	_, cl := startServer(t)
	tok, err := cl.Create("regular", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(tok, []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(tok)
	if err != nil || string(got) != "scratch" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestMultipleConnections(t *testing.T) {
	srv, cl1 := startServer(t)
	addr := srv.ln.Addr().String()
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	tok, err := cl1.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl1.Put(tok, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	// Tokens are connection-independent capabilities.
	got, err := cl2.Get(tok)
	if err != nil || string(got) != "shared" {
		t.Fatalf("cross-connection Get = %q, %v", got, err)
	}
}

// closeWithin closes srv and fails the test unless Close returns within 5 s.
//
//pcsi:allow wallclock a shutdown deadline on real sockets.
func closeWithin(t *testing.T, srv *Server) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return: a connection goroutine outlived it")
	}
}

func TestCloseDrainsConnections(t *testing.T) {
	srv, cl1 := startServer(t)
	cl2, err := Dial(srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	// One call each, so both connections are being served, then idle.
	for _, cl := range []*Client{cl1, cl2} {
		if _, err := cl.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	closeWithin(t, srv)
	for i, cl := range []*Client{cl1, cl2} {
		if _, err := cl.Stats(); err == nil {
			t.Errorf("client %d: call after Close succeeded", i+1)
		}
	}
}

// TestStalledPeerHoldsOnlyItsConnection: a peer that sends part of a frame
// and stops blocks only its own connection's read (frame reads happen
// outside the server lock); another client is served meanwhile, and Close
// still drains the stalled connection.
func TestStalledPeerHoldsOnlyItsConnection(t *testing.T) {
	srv, _ := startServer(t)
	addr := srv.ln.Addr().String()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	partial := append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 10)...)
	if _, err := raw.Write(partial); err != nil {
		t.Fatal(err)
	}
	// Dialed after raw: the server accepts in order, so once cl is answered
	// the stalled connection is being served too.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tok, err := cl.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(tok, []byte("not blocked")); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Get(tok); err != nil || string(got) != "not blocked" {
		t.Fatalf("Get beside a stalled peer = %q, %v", got, err)
	}
	// Close has returned, so the stalled connection's goroutine has too,
	// having closed its end (EOF, or a reset if the 10 bytes were unread).
	closeWithin(t, srv)
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("stalled connection still open after Close")
	}
}

func TestSocketOverTCP(t *testing.T) {
	_, cl := startServer(t)
	conn, err := cl.Create("socket", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SockSend(conn, "client", []byte("request")); err != nil {
		t.Fatal(err)
	}
	msg, err := cl.SockRecv(conn, "server")
	if err != nil || string(msg) != "request" {
		t.Fatalf("SockRecv = %q, %v", msg, err)
	}
	if err := cl.SockSend(conn, "server", []byte("response")); err != nil {
		t.Fatal(err)
	}
	msg, err = cl.SockRecv(conn, "client")
	if err != nil || string(msg) != "response" {
		t.Fatalf("SockRecv = %q, %v", msg, err)
	}
	if err := cl.SockClose(conn); err != nil {
		t.Fatal(err)
	}
	if err := cl.SockSend(conn, "client", []byte("late")); err == nil {
		t.Error("send after close succeeded over TCP")
	}
}

// TestGetBodiesAreWholeVersions: OpGet's reply body is a view of the object
// (core.Client.View), written to the wire after the server's lock is
// released, while another connection's Puts and Appends to the same object
// run. Run it under -race: no write may reach the bytes of a body being
// sent, and every body received is one whole version — one byte value
// throughout, at a length some Put or Append left.
func TestGetBodiesAreWholeVersions(t *testing.T) {
	srv, writer := startServer(t)
	reader, err := Dial(srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	tok, err := writer.Create("regular", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	const size, chunk, versions, appends = 16 << 10, 1 << 10, 30, 4
	if err := writer.Put(tok, bytes.Repeat([]byte{0}, size)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for v := 1; v <= versions; v++ {
			if err := writer.Put(tok, bytes.Repeat([]byte{byte(v)}, size)); err != nil {
				done <- err
				return
			}
			for j := 0; j < appends; j++ {
				if err := writer.Append(tok, bytes.Repeat([]byte{byte(v)}, chunk)); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	reads := 0
	for writing := true; writing; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		body, err := reader.Get(tok)
		if err != nil {
			t.Fatal(err)
		}
		tail := len(body) - size
		if tail < 0 || tail%chunk != 0 || tail/chunk > appends || bytes.Count(body, body[:1]) != len(body) {
			t.Fatalf("read %d: a body of %d bytes is no whole version (first byte %d)", reads, len(body), body[0])
		}
	}
	if reads < 2 {
		t.Errorf("only %d reads overlapped the writes", reads)
	}
}
