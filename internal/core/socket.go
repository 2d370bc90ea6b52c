package core

import (
	"repro/internal/consistency"
	"repro/internal/object"
	"repro/internal/sim"
)

// Socket operations: Figure 2's application is fronted by a "TCP
// Connection" object — a bidirectional message pipe reached through the
// same reference mechanism as every other object. The client end is 0,
// the server (function) end is 1; a typical pattern attenuates a
// reference before handing it to the serving function.

// Socket ends.
const (
	ClientEnd = 0
	ServerEnd = 1
)

// SockSend enqueues msg from the given end toward the other.
func (cl *Client) SockSend(p *sim.Proc, r Ref, end int, msg []byte) error {
	return cl.run(p, r, verbSockSend, func(t target) error {
		return t.apply(consistency.Linearizable, len(msg), func(o *object.Object) error {
			return o.SockSend(end, msg)
		})
	})
}

// SockRecv blocks (polling at network cadence) until a message arrives at
// the given end, the socket closes, or the poll budget runs out.
func (cl *Client) SockRecv(p *sim.Proc, r Ref, end int) ([]byte, error) {
	var msg []byte
	err := cl.run(p, r, verbSockRecv, func(t target) error {
		err := t.poll(object.ErrSockEmpty, 100000, func(o *object.Object) error {
			var rerr error
			msg, rerr = o.SockRecv(end)
			return rerr
		})
		// Tallied on both paths: a node-local receive asks ephemDo to
		// move zero bytes, so this is the only count.
		cl.c.BytesMoved += int64(len(msg))
		return err
	})
	return msg, err
}

// SockClose closes the connection.
func (cl *Client) SockClose(p *sim.Proc, r Ref) error {
	return cl.run(p, r, verbSockClose, func(t target) error {
		return t.apply(consistency.Linearizable, 0, func(o *object.Object) error { return o.SockClose() })
	})
}
