// Package pcsinet exposes a PCSI deployment over a real TCP connection
// using the stateful binary protocol the paper advocates: clients open
// references once and then operate through compact, capability-bearing
// frames — no per-request credential round trips, no text envelopes.
//
// The wire format is a 4-byte big-endian length prefix followed by a
// wire.BinaryCodec message. References never leave the server; clients
// hold unguessable tokens mapped to capabilities server-side (the classic
// "swiss number" pattern).
package pcsinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Protocol operations.
const (
	OpCreate   = "create"    // Headers: kind, mutability?, consistency?, ephemeral?
	OpPut      = "put"       // Key: token; Body: data
	OpGet      = "get"       // Key: token
	OpAppend   = "append"    // Key: token; Body: data
	OpFreeze   = "freeze"    // Key: token; Headers: level
	OpStat     = "stat"      // Key: token
	OpAttenu   = "attenuate" // Key: token; Headers: rights
	OpDrop     = "drop"      // Key: token
	OpMkdirNS  = "mkns"      // create a namespace; returns ns token
	OpCreateAt = "createat"  // Key: ns token; Headers: path, kind
	OpOpen     = "open"      // Key: ns token; Headers: path, rights
	OpList     = "list"      // Key: ns token; Headers: path
	OpRemove   = "remove"    // Key: ns token; Headers: path
	OpInvoke   = "invoke"    // Key: fn token; Body: request body
	OpStats    = "stats"     // deployment counters
	OpSockSend = "socksend"  // Key: token; Headers: end; Body: message
	OpSockRecv = "sockrecv"  // Key: token; Headers: end
	OpSockEnd  = "sockclose" // Key: token
)

// Status codes.
const (
	StatusOK    = 200
	StatusError = 400
)

// MaxFrame bounds a single protocol frame.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned for oversized frames.
var ErrFrameTooLarge = errors.New("pcsinet: frame exceeds MaxFrame")

var codec = wire.BinaryCodec{}

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, m *wire.Message) error {
	payload, err := codec.Encode(m)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// eagerFrame is the largest payload buffer allocated on the word of the
// length prefix alone.
const eagerFrame = 1 << 20

// ReadFrame reads one length-prefixed message. The prefix comes from an
// unauthenticated peer, so only frames up to eagerFrame get their buffer
// up front (one exact allocation, no copy); a larger frame's buffer
// doubles as its bytes arrive, so memory held never exceeds eagerFrame or
// three times what the peer actually sent, whatever length it claimed.
func ReadFrame(r io.Reader) (*wire.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	claimed := binary.BigEndian.Uint32(hdr[:])
	if claimed > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	n := int(claimed)
	payload := make([]byte, min(n, eagerFrame))
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return nil, err
		}
		if got = len(payload); got == n {
			return codec.Decode(payload)
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, payload)
		payload = grown
	}
}

// errResp builds an error response.
func errResp(err error) *wire.Message {
	return &wire.Message{Status: StatusError, Headers: map[string]string{"error": err.Error()}}
}

// okResp builds a success response.
func okResp(body []byte, headers map[string]string) *wire.Message {
	return &wire.Message{Status: StatusOK, Body: body, Headers: headers}
}

// RespError extracts the error from a response, if any.
func RespError(m *wire.Message) error {
	if m.Status == StatusOK {
		return nil
	}
	if m.Headers != nil && m.Headers["error"] != "" {
		return fmt.Errorf("pcsinet: %s", m.Headers["error"])
	}
	return fmt.Errorf("pcsinet: status %d", m.Status)
}
