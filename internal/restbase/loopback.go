package restbase

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
)

// Real (wall-clock) loopback services backing the measured rows of
// Table 1: an HTTP object server and a raw TCP echo server. The Table 1
// benchmarks compare a loopback HTTP round trip against a raw socket
// round trip against an in-process call, reproducing the paper's
// HTTP-protocol and socket-overhead rows without a testbed.

// LoopbackHTTP is a real net/http server on 127.0.0.1 serving an
// in-memory object.
type LoopbackHTTP struct {
	srv  *http.Server
	ln   net.Listener
	mu   sync.RWMutex
	data []byte
	// Client is a keep-alive HTTP client bound to the server.
	Client *http.Client
	url    string
}

// NewLoopbackHTTP starts the server with the given object payload.
func NewLoopbackHTTP(payload []byte) (*LoopbackHTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &LoopbackHTTP{ln: ln, data: append([]byte(nil), payload...)}
	mux := http.NewServeMux()
	mux.HandleFunc("/object", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			l.mu.RLock()
			defer l.mu.RUnlock()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(l.data) //nolint:errcheck
		case http.MethodPut:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			l.mu.Lock()
			l.data = body
			l.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	})
	l.srv = &http.Server{Handler: mux}
	l.url = fmt.Sprintf("http://%s/object", ln.Addr())
	l.Client = &http.Client{}
	go l.srv.Serve(ln) //nolint:errcheck
	return l, nil
}

// Get performs one real HTTP GET and returns the body length.
func (l *LoopbackHTTP) Get() (int, error) {
	resp, err := l.Client.Get(l.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return int(n), err
}

// Close shuts the server down.
func (l *LoopbackHTTP) Close() error { return l.srv.Close() }

// LoopbackTCP is a raw TCP echo server for measuring socket round trips
// without HTTP framing.
type LoopbackTCP struct {
	ln   net.Listener
	conn net.Conn // persistent client connection
}

// NewLoopbackTCP starts the echo server and opens one client connection.
func NewLoopbackTCP() (*LoopbackTCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &LoopbackTCP{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64*1024)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() //nolint:errcheck
		return nil, err
	}
	l.conn = conn
	return l, nil
}

// RoundTrip writes payload and reads it back on the persistent
// connection: one socket round trip.
func (l *LoopbackTCP) RoundTrip(payload, buf []byte) error {
	if _, err := l.conn.Write(payload); err != nil {
		return err
	}
	total := 0
	for total < len(payload) {
		n, err := l.conn.Read(buf[total:len(payload)])
		if err != nil {
			return err
		}
		total += n
	}
	return nil
}

// DialRoundTrip opens a fresh connection for a single round trip — the
// stateless pattern, measuring connection setup cost.
func (l *LoopbackTCP) DialRoundTrip(payload, buf []byte) error {
	c, err := net.Dial("tcp", l.ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Write(payload); err != nil {
		return err
	}
	total := 0
	for total < len(payload) {
		n, err := c.Read(buf[total:len(payload)])
		if err != nil {
			return err
		}
		total += n
	}
	return nil
}

// Close shuts everything down.
func (l *LoopbackTCP) Close() error {
	if l.conn != nil {
		l.conn.Close() //nolint:errcheck
	}
	return l.ln.Close()
}
