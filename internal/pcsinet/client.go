package pcsinet

import (
	"bufio"
	"net"
	"strings"

	"repro/internal/wire"
)

// Client is a connection to a pcsid server. It is not safe for concurrent
// use; open one client per goroutine (the protocol is stateful, like the
// interface it carries).
type Client struct {
	conn net.Conn
	r    *bufio.Reader // conn's read side: a reply's prefix and payload in one read
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// call performs one request/response exchange.
func (c *Client) call(op, key string, headers map[string]string, body []byte) (*wire.Message, error) {
	req := &wire.Message{Op: op, Key: key, Headers: headers, Body: body}
	if err := WriteFrame(c.conn, req); err != nil {
		return nil, err
	}
	resp, err := ReadFrame(c.r)
	if err != nil {
		return nil, err
	}
	if err := RespError(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Create makes an object; kind/consistency/mutability use the protocol's
// string forms ("regular", "eventual", "APPEND_ONLY", ...). Returns the
// reference token.
func (c *Client) Create(kind, consistencyLvl, mutability string, ephemeral bool) (string, error) {
	h := map[string]string{"kind": kind, "consistency": consistencyLvl, "mutability": mutability}
	if ephemeral {
		h["ephemeral"] = "true"
	}
	resp, err := c.call(OpCreate, "", h, nil)
	if err != nil {
		return "", err
	}
	return resp.Headers["token"], nil
}

// Put replaces an object's payload.
func (c *Client) Put(token string, data []byte) error {
	_, err := c.call(OpPut, token, nil, data)
	return err
}

// Append appends to an object.
func (c *Client) Append(token string, data []byte) error {
	_, err := c.call(OpAppend, token, nil, data)
	return err
}

// Get fetches an object's payload.
func (c *Client) Get(token string) ([]byte, error) {
	resp, err := c.call(OpGet, token, nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Freeze moves the object along the mutability lattice.
func (c *Client) Freeze(token, level string) error {
	_, err := c.call(OpFreeze, token, map[string]string{"level": level}, nil)
	return err
}

// Stat returns object metadata as protocol headers.
func (c *Client) Stat(token string) (map[string]string, error) {
	resp, err := c.call(OpStat, token, nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.Headers, nil
}

// Attenuate derives a narrowed reference ("read|write" rights syntax).
func (c *Client) Attenuate(token, rights string) (string, error) {
	resp, err := c.call(OpAttenu, token, map[string]string{"rights": rights}, nil)
	if err != nil {
		return "", err
	}
	return resp.Headers["token"], nil
}

// Drop releases a reference token.
func (c *Client) Drop(token string) error {
	_, err := c.call(OpDrop, token, nil, nil)
	return err
}

// NewNamespace creates a namespace, returning its token and the root
// reference token.
func (c *Client) NewNamespace() (nsToken, rootToken string, err error) {
	resp, err := c.call(OpMkdirNS, "", nil, nil)
	if err != nil {
		return "", "", err
	}
	return resp.Headers["token"], resp.Headers["root"], nil
}

// CreateAt creates an object at a path inside a namespace.
func (c *Client) CreateAt(nsToken, path, kind string) (string, error) {
	resp, err := c.call(OpCreateAt, nsToken, map[string]string{"path": path, "kind": kind}, nil)
	if err != nil {
		return "", err
	}
	return resp.Headers["token"], nil
}

// Open resolves a path to a reference with the given rights.
func (c *Client) Open(nsToken, path, rights string) (string, error) {
	resp, err := c.call(OpOpen, nsToken, map[string]string{"path": path, "rights": rights}, nil)
	if err != nil {
		return "", err
	}
	return resp.Headers["token"], nil
}

// List returns directory entries at a path.
func (c *Client) List(nsToken, path string) ([]string, error) {
	resp, err := c.call(OpList, nsToken, map[string]string{"path": path}, nil)
	if err != nil {
		return nil, err
	}
	if len(resp.Body) == 0 {
		return nil, nil
	}
	return strings.Split(string(resp.Body), "\n"), nil
}

// Remove unlinks a path.
func (c *Client) Remove(nsToken, path string) error {
	_, err := c.call(OpRemove, nsToken, map[string]string{"path": path}, nil)
	return err
}

// Invoke calls a function by token with optional input/output reference
// tokens.
func (c *Client) Invoke(fnToken string, inputs, outputs []string, body []byte) error {
	h := map[string]string{
		"inputs":  strings.Join(inputs, ","),
		"outputs": strings.Join(outputs, ","),
	}
	_, err := c.call(OpInvoke, fnToken, h, body)
	return err
}

// SockSend enqueues a message on a socket object ("client" or "server"
// end).
func (c *Client) SockSend(token, end string, msg []byte) error {
	_, err := c.call(OpSockSend, token, map[string]string{"end": end}, msg)
	return err
}

// SockRecv dequeues a message arriving at the given end.
func (c *Client) SockRecv(token, end string) ([]byte, error) {
	resp, err := c.call(OpSockRecv, token, map[string]string{"end": end}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// SockClose closes a socket object.
func (c *Client) SockClose(token string) error {
	_, err := c.call(OpSockEnd, token, nil, nil)
	return err
}

// Stats returns deployment counters.
func (c *Client) Stats() (map[string]string, error) {
	resp, err := c.call(OpStats, "", nil, nil)
	if err != nil {
		return nil, err
	}
	return resp.Headers, nil
}
