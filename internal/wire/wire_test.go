package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

var codecs = []Codec{JSONCodec{}, BinaryCodec{}}

func sample() *Message {
	return &Message{
		Op:      "GetObject",
		Key:     "bucket/data/file.bin",
		Auth:    "bearer-token-abc123",
		Headers: map[string]string{"consistency": "eventual", "range": "0-1023"},
		Body:    []byte("payload bytes \x00\x01\xff"),
		Status:  200,
	}
}

func TestRoundTrip(t *testing.T) {
	for _, c := range codecs {
		m := sample()
		enc, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		got, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		if got.Op != m.Op || got.Key != m.Key || got.Auth != m.Auth || got.Status != m.Status {
			t.Errorf("%s: fields mismatch: %+v", c.Name(), got)
		}
		if !bytes.Equal(got.Body, m.Body) {
			t.Errorf("%s: body mismatch", c.Name())
		}
		for k, v := range m.Headers {
			if got.Headers[k] != v {
				t.Errorf("%s: header %q = %q, want %q", c.Name(), k, got.Headers[k], v)
			}
		}
	}
}

func TestEmptyMessage(t *testing.T) {
	for _, c := range codecs {
		enc, err := c.Encode(&Message{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got.Op != "" || len(got.Body) != 0 {
			t.Errorf("%s: %+v", c.Name(), got)
		}
	}
}

// Property: both codecs round-trip arbitrary messages.
func TestRoundTripProperty(t *testing.T) {
	for _, c := range codecs {
		c := c
		f := func(op, key, auth string, body []byte, status uint16) bool {
			m := &Message{Op: op, Key: key, Auth: auth, Body: body, Status: int(status)}
			enc, err := c.Encode(m)
			if err != nil {
				return false
			}
			got, err := c.Decode(enc)
			if err != nil {
				return false
			}
			return got.Op == op && got.Key == key && got.Auth == auth &&
				got.Status == int(status) && bytes.Equal(got.Body, body)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestBinaryMoreCompactThanJSON(t *testing.T) {
	m := sample()
	j, err := JSONCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= len(j) {
		t.Errorf("binary (%d bytes) not smaller than JSON (%d bytes)", len(b), len(j))
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, c := range codecs {
		if _, err := c.Decode([]byte("{{{{not-valid")); err == nil {
			t.Errorf("%s accepted garbage", c.Name())
		}
	}
	// Truncated binary message.
	full, err := BinaryCodec{}.Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := (BinaryCodec{}).Decode(full[:cut]); err == nil {
			t.Errorf("binary accepted truncation at %d", cut)
		}
	}
	// A header count the remaining bytes cannot hold is refused before the
	// map is sized by it: 2^24 headers claimed in eight bytes.
	claim := append([]byte{0, 0, 0, 0}, binary.AppendUvarint(nil, 1<<24)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = (BinaryCodec{}).Decode(claim)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 1<<20 {
		t.Errorf("impossible header count: err %v after allocating %d bytes", err, grew)
	}
}

func TestModelCostCalibration(t *testing.T) {
	// Table 1: "Object marshaling (1k): >50,000 ns".
	j := JSONCodec{}.ModelCost(1024)
	if j < 50_000 {
		t.Errorf("JSON 1k model cost = %v, Table 1 says >50µs", j)
	}
	b := BinaryCodec{}.ModelCost(1024)
	if b*10 > j {
		t.Errorf("binary cost %v not ≪ JSON cost %v", b, j)
	}
	if (JSONCodec{}).ModelCost(1<<20) <= (JSONCodec{}).ModelCost(1024) {
		t.Error("model cost does not scale with size")
	}
}

func TestBinaryDeterministic(t *testing.T) {
	m := sample()
	a, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("binary encoding nondeterministic (header ordering?)")
	}
}
