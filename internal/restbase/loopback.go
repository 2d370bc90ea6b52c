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
// in-memory object, and a keep-alive net/http client bound to it. Close
// returns only once the goroutines the server started have exited.
type LoopbackHTTP struct {
	srv  *http.Server
	mu   sync.RWMutex
	data []byte
	// Client is a keep-alive HTTP client bound to the server, with a
	// transport of its own so Close can drop its idle connections.
	Client *http.Client
	tr     *http.Transport
	url    string
	wg     sync.WaitGroup // the accept loop and one per server connection
}

// NewLoopbackHTTP starts the server with the given object payload.
func NewLoopbackHTTP(payload []byte) (*LoopbackHTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &LoopbackHTTP{data: append([]byte(nil), payload...)}
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
	l.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		// The accept loop reports StateNew before it starts a connection's
		// goroutine, and that goroutine reports StateClosed as it ends.
		switch st {
		case http.StateNew:
			l.wg.Add(1)
		case http.StateClosed, http.StateHijacked:
			l.wg.Done()
		}
	}}
	l.url = fmt.Sprintf("http://%s/object", ln.Addr())
	l.tr = &http.Transport{}
	l.Client = &http.Client{Transport: l.tr}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.srv.Serve(ln) //nolint:errcheck
	}()
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

// Close shuts the server down, drops the client's idle connections and
// waits for the server's goroutines.
func (l *LoopbackHTTP) Close() error {
	err := l.srv.Close()
	l.tr.CloseIdleConnections()
	l.wg.Wait()
	return err
}

// LoopbackTCP is a raw TCP echo server for measuring socket round trips
// without HTTP framing. Close returns only once its accept loop and echo
// goroutines have exited.
type LoopbackTCP struct {
	ln   net.Listener
	conn net.Conn // persistent client connection
	wg   sync.WaitGroup
}

// NewLoopbackTCP starts the echo server and opens one client connection.
func NewLoopbackTCP() (*LoopbackTCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &LoopbackTCP{ln: ln}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			l.wg.Add(1)
			go func(c net.Conn) {
				defer l.wg.Done()
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
		l.wg.Wait()
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

// Close shuts everything down: closing the client connection ends its
// echo goroutine, closing the listener ends the accept loop.
func (l *LoopbackTCP) Close() error {
	l.conn.Close() //nolint:errcheck
	err := l.ln.Close()
	l.wg.Wait()
	return err
}
