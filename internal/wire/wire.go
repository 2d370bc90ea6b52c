// Package wire provides the message codecs used at system boundaries: a
// JSON envelope codec representing today's web-services data path (the
// "object marshaling" row of Table 1) and a compact binary codec
// representing the stateful PCSI protocol.
//
// Both codecs are real implementations measured by the Table 1 benchmarks;
// the simulated REST gateway additionally charges the JSON codec's modelled
// cost.
package wire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Message is a request/response envelope exchanged with a storage or
// compute service.
type Message struct {
	Op      string            // operation name, e.g. "GetObject"
	Key     string            // object key / path
	Auth    string            // bearer credential (REST resends every call)
	Headers map[string]string // protocol metadata
	Body    []byte            // payload
	Status  int               // response status
}

// Codec serialises messages.
type Codec interface {
	Encode(*Message) ([]byte, error)
	Decode([]byte) (*Message, error)
}

// --- JSON codec (web services baseline) ---

// JSONCodec marshals the envelope as JSON with a base64 body, the shape of
// a typical REST cloud API.
type JSONCodec struct{}

type jsonEnvelope struct {
	Op      string            `json:"op"`
	Key     string            `json:"key"`
	Auth    string            `json:"auth,omitempty"`
	Headers map[string]string `json:"headers,omitempty"`
	Body    string            `json:"body,omitempty"`
	Status  int               `json:"status,omitempty"`
}

// Encode implements Codec.
func (JSONCodec) Encode(m *Message) ([]byte, error) {
	env := jsonEnvelope{Op: m.Op, Key: m.Key, Auth: m.Auth, Headers: m.Headers, Status: m.Status}
	if len(m.Body) > 0 {
		env.Body = base64.StdEncoding.EncodeToString(m.Body)
	}
	return json.Marshal(env)
}

// Decode implements Codec.
func (JSONCodec) Decode(b []byte) (*Message, error) {
	var env jsonEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("wire: json decode: %w", err)
	}
	m := &Message{Op: env.Op, Key: env.Key, Auth: env.Auth, Headers: env.Headers, Status: env.Status}
	if env.Body != "" {
		body, err := base64.StdEncoding.DecodeString(env.Body)
		if err != nil {
			return nil, fmt.Errorf("wire: body decode: %w", err)
		}
		m.Body = body
	}
	return m, nil
}

// ModelCost returns the simulated CPU time the REST gateway charges to
// encode+decode a message with a body of size bytes, calibrated to Table
// 1's "Object marshaling (1k): >50,000 ns" — a fixed envelope cost of 45µs
// plus ~5µs per KiB of body (JSON+base64 throughput of roughly 200 MB/s for
// encode+decode).
func (JSONCodec) ModelCost(size int) time.Duration {
	const perKiB = 5 * time.Microsecond
	return 45*time.Microsecond + time.Duration(float64(size)/1024*float64(perKiB))
}

// --- Binary codec (PCSI protocol) ---

// BinaryCodec is a length-prefixed binary framing with no text encoding
// and no body transformation — the kind of protocol a stateful cloud
// system interface would use.
type BinaryCodec struct{}

var errShort = errors.New("wire: short binary message")

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func getString(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return "", nil, errShort
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

// Encode implements Codec.
func (c BinaryCodec) Encode(m *Message) ([]byte, error) {
	return c.Append(make([]byte, 0, 64+len(m.Body)), m), nil
}

// Append appends m's encoding to buf and returns the extended buffer, so a
// caller can lay a frame header and the message out in one allocation.
func (BinaryCodec) Append(buf []byte, m *Message) []byte {
	buf = putString(buf, m.Op)
	buf = putString(buf, m.Key)
	buf = putString(buf, m.Auth)
	buf = binary.AppendUvarint(buf, uint64(m.Status))
	buf = binary.AppendUvarint(buf, uint64(len(m.Headers)))
	// Deterministic header order.
	keys := make([]string, 0, len(m.Headers))
	for k := range m.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = putString(buf, k)
		buf = putString(buf, m.Headers[k])
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Body)))
	return append(buf, m.Body...)
}

// Decode implements Codec. The returned Body aliases b, capacity clipped,
// rather than copying it: the caller hands b over and must not reuse it.
func (BinaryCodec) Decode(b []byte) (*Message, error) {
	m := &Message{}
	var err error
	if m.Op, b, err = getString(b); err != nil {
		return nil, err
	}
	if m.Key, b, err = getString(b); err != nil {
		return nil, err
	}
	if m.Auth, b, err = getString(b); err != nil {
		return nil, err
	}
	status, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, errShort
	}
	m.Status = int(status)
	b = b[k:]
	nh, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, errShort
	}
	b = b[k:]
	// A header is at least two length bytes: refuse a count the bytes
	// cannot hold before sizing the map by it.
	if nh > uint64(len(b))/2 {
		return nil, errShort
	}
	if nh > 0 {
		m.Headers = make(map[string]string, nh)
		for i := uint64(0); i < nh; i++ {
			var key, val string
			if key, b, err = getString(b); err != nil {
				return nil, err
			}
			if val, b, err = getString(b); err != nil {
				return nil, err
			}
			m.Headers[key] = val
		}
	}
	nb, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < nb {
		return nil, errShort
	}
	if nb > 0 {
		end := k + int(nb)
		m.Body = b[k:end:end]
	}
	return m, nil
}
