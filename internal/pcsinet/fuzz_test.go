package pcsinet

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// frame encodes m as it travels on the wire.
func frame(t testing.TB, m *wire.Message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// meteredReader serves input and fails the test when ReadFrame offers a
// buffer larger than eagerFrame that the bytes delivered so far do not
// justify — the memory a peer can make the server hold by claiming a
// length it never sends.
type meteredReader struct {
	t         *testing.T
	in        []byte
	delivered int
}

func (r *meteredReader) Read(p []byte) (int, error) {
	if len(p) > eagerFrame && len(p) > r.delivered {
		r.t.Fatalf("ReadFrame offered a %d-byte buffer after %d bytes arrived", len(p), r.delivered)
	}
	if r.delivered == len(r.in) {
		return 0, io.EOF
	}
	n := copy(p, r.in[r.delivered:])
	r.delivered += n
	return n, nil
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must not
// panic, and must not size a buffer by a length the peer only claimed.
func FuzzReadFrame(f *testing.F) {
	for name := range ops {
		f.Add(frame(f, &wire.Message{Op: name, Key: "ref-0123", Headers: map[string]string{"path": "a/b"}, Body: []byte("x")}))
	}
	// A header that claims MaxFrame and sends a few bytes.
	f.Add(append(binary.BigEndian.AppendUint32(nil, MaxFrame), "short"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadFrame(&meteredReader{t: t, in: in})
		if err == nil && m == nil {
			t.Fatal("ReadFrame returned neither a message nor an error")
		}
	})
}

// TestReadFrameLarge pins the slow path the fuzzer rarely reaches: a
// frame above eagerFrame arrives intact through a buffer that grows with
// it, and one whose peer stops early costs no more than what was sent.
func TestReadFrameLarge(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 3*eagerFrame/16)
	in := frame(t, &wire.Message{Op: OpPut, Key: "ref-0123", Body: body})
	m, err := ReadFrame(&meteredReader{t: t, in: in})
	if err != nil || !bytes.Equal(m.Body, body) {
		t.Fatalf("large frame: %d-byte body, err %v", len(m.Body), err)
	}
	if _, err := ReadFrame(&meteredReader{t: t, in: in[:len(in)/2]}); err == nil {
		t.Fatal("truncated large frame accepted")
	}
}

// FuzzDispatch decodes arbitrary bytes as a request and serves it on a
// live deployment: whatever the op, key, headers and body say, the server
// answers with a well-formed response and does not panic. The keys "ns"
// and "fn" stand for live tokens and "regular"/"socket" for a fresh object
// of that kind (drop and sockclose use their target up), so mutations
// reach the row bodies and not only the refusal path.
func FuzzDispatch(f *testing.F) {
	srv := NewServer(core.New(core.DefaultOptions()))
	fnTok, err := srv.RegisterFunction(core.FnConfig{Name: "nop", Handler: func(*core.FnCtx) error { return nil }})
	if err != nil {
		f.Fatal(err)
	}
	nsTok := srv.dispatch(&wire.Message{Op: OpMkdirNS}).Headers["token"]
	seedKey := map[keyKind]string{keyRef: "regular", keyNS: "ns", keyFn: "fn"}
	for name, row := range ops {
		f.Add(frame(f, &wire.Message{Op: name, Key: seedKey[row.key], Body: []byte("x"),
			Headers: map[string]string{"path": "a/b", "kind": "regular", "rights": "read"}})[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// OpPut shares the decoded body with an object, and the fuzzer
		// reuses its input: give the frame its own array, as ReadFrame does.
		req, err := codec.Decode(bytes.Clone(payload))
		if err != nil {
			return
		}
		switch req.Key {
		case "ns":
			req.Key = nsTok
		case "fn":
			req.Key = fnTok
		case "regular", "socket":
			req.Key = srv.dispatch(&wire.Message{Op: OpCreate, Headers: map[string]string{"kind": req.Key}}).Headers["token"]
		}
		resp := srv.dispatch(req)
		switch {
		case resp == nil:
			t.Fatal("nil response")
		case resp.Status == StatusOK:
		case resp.Status == StatusError && resp.Headers["error"] != "":
		default:
			t.Fatalf("malformed response: status %d headers %v", resp.Status, resp.Headers)
		}
		back, err := ReadFrame(bytes.NewReader(frame(t, resp)))
		if err != nil || back.Status != resp.Status {
			t.Fatalf("response does not survive the wire: %v", err)
		}
	})
}
