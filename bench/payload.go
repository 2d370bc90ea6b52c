package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
)

// Payloads are self-describing so the correctness oracles share no code
// with the system they check. A record is a 32-byte header followed by a
// body that is a rotation of one fixed pseudo-random template; the rotation
// is a function of (object index, slot, version), so any byte range of a
// record can be checked against the version it claims to be.
//
//	0  magic   u32
//	4  index   u32   object index in the generator's population
//	8  version u64   per-register issue counter
//	16 size    u32   record length including this header
//	20 slot    u32   record number inside a table object, else 0
//	24 zero    u32
//	28 crc     u32   CRC-32 (IEEE) of bytes 0..27
const (
	hdrLen      = 32
	recMagic    = 0x50435342 // "PCSB"
	templateLen = 1 << 16
)

// template is generated from a fixed constant, not from -seed: its content
// never matters, only that it is incompressible and the same everywhere.
var template = func() []byte {
	b := make([]byte, templateLen)
	rand.New(rand.NewSource(0x5043_5349)).Read(b)
	return b
}()

// rotation maps a record's identity to its offset into the template.
func rotation(idx, slot uint32, ver uint64) int {
	x := uint64(idx)<<32 | uint64(slot)
	x ^= ver * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int(x & (templateLen - 1))
}

// fillRecord writes a record of len(dst) bytes (hdrLen <= len <= templateLen).
func fillRecord(dst []byte, idx, slot uint32, ver uint64) {
	binary.LittleEndian.PutUint32(dst[0:], recMagic)
	binary.LittleEndian.PutUint32(dst[4:], idx)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	binary.LittleEndian.PutUint32(dst[16:], uint32(len(dst)))
	binary.LittleEndian.PutUint32(dst[20:], slot)
	binary.LittleEndian.PutUint32(dst[24:], 0)
	binary.LittleEndian.PutUint32(dst[28:], crc32.ChecksumIEEE(dst[:28]))
	copyBody(dst[hdrLen:], rotation(idx, slot, ver)+hdrLen)
}

// copyBody fills dst with template bytes starting at template offset from,
// wrapping at the template's end.
func copyBody(dst []byte, from int) {
	from &= templateLen - 1
	n := copy(dst, template[from:])
	for n < len(dst) {
		n += copy(dst[n:], template)
	}
}

// bodyEqual reports whether b equals the template bytes starting at from.
func bodyEqual(b []byte, from int) bool {
	from &= templateLen - 1
	first := templateLen - from
	if first >= len(b) {
		return bytes.Equal(b, template[from:from+len(b)])
	}
	return bytes.Equal(b[:first], template[from:]) && bytes.Equal(b[first:], template[:len(b)-first])
}

type recHeader struct {
	idx, slot uint32
	ver       uint64
	size      int
}

// parseHeader decodes and checks a record header.
func parseHeader(b []byte) (recHeader, error) {
	if len(b) < hdrLen {
		return recHeader{}, fmt.Errorf("record of %d bytes is shorter than its header", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != recMagic {
		return recHeader{}, fmt.Errorf("bad magic %#x", binary.LittleEndian.Uint32(b[0:]))
	}
	if got, want := binary.LittleEndian.Uint32(b[28:]), crc32.ChecksumIEEE(b[:28]); got != want {
		return recHeader{}, fmt.Errorf("header checksum %#x, computed %#x", got, want)
	}
	return recHeader{
		idx:  binary.LittleEndian.Uint32(b[4:]),
		slot: binary.LittleEndian.Uint32(b[20:]),
		ver:  binary.LittleEndian.Uint64(b[8:]),
		size: int(binary.LittleEndian.Uint32(b[16:])),
	}, nil
}

// checkRecord verifies a whole record: header, identity, length and body.
func checkRecord(b []byte, idx, slot uint32, size int) (uint64, error) {
	h, err := parseHeader(b)
	if err != nil {
		return 0, err
	}
	if h.idx != idx || h.slot != slot {
		return 0, fmt.Errorf("record of object %d slot %d where %d slot %d was read", h.idx, h.slot, idx, slot)
	}
	if h.size != size || len(b) != size {
		return 0, fmt.Errorf("record says %d bytes, read returned %d, object holds %d", h.size, len(b), size)
	}
	if !bodyEqual(b[hdrLen:], rotation(idx, slot, h.ver)+hdrLen) {
		return 0, fmt.Errorf("body does not match version %d", h.ver)
	}
	return h.ver, nil
}

// inFlight marks a write whose reply has not arrived.
const inFlight = math.MaxInt64

// register is the oracle's model of one independently written record: every
// write issued against it with its virtual start and end time. It shares
// nothing with the store: versions come from the generator and times from
// p.Now() around the client call.
type register struct {
	start, end   []int64 // by version; index 0 unused
	maxStartDone int64   // newest start among writes whose reply arrived
}

func newRegister() *register {
	return &register{start: []int64{0}, end: []int64{0}}
}

func (r *register) issued() uint64 { return uint64(len(r.start) - 1) }

// begin issues the next version at virtual time t.
func (r *register) begin(t int64) uint64 {
	r.start = append(r.start, t)
	r.end = append(r.end, inFlight)
	return r.issued()
}

// finish records that version v's reply arrived at virtual time t. A write
// that returned an error is never finished: it may or may not have applied.
func (r *register) finish(v uint64, t int64) {
	r.end[v] = t
	if r.start[v] > r.maxStartDone {
		r.maxStartDone = r.start[v]
	}
}

// checkRead validates that a read which began when maxStartDone was snap may
// return version v. Any issued version is acceptable at the eventual level.
// At the linearizable level v is stale exactly when some write began after
// v's reply arrived and itself completed before the read began — the rule
// is sound under concurrent writers, whose issue order need not be their
// linearisation order.
func (r *register) checkRead(v uint64, snap int64, linearizable bool) error {
	if v == 0 || v > r.issued() {
		return fmt.Errorf("version %d was never issued (newest is %d)", v, r.issued())
	}
	if linearizable && r.end[v] < snap {
		return fmt.Errorf("stale linearizable read: version %d was overwritten by a write that completed before the read began", v)
	}
	return nil
}

// Log records: appends to AppendOnly objects. Fixed 64 bytes so a log's
// payload parses without framing.
//
//	0 magic u32, 4 log index u32, 8 seq u64, 16 writer u32, 20 fill[40], 60 crc u32
const (
	logRecLen = 64
	logMagic  = 0x5043534c // "PCSL"
)

func fillLogRecord(dst []byte, logIdx uint32, seq uint64, writer uint32) {
	binary.LittleEndian.PutUint32(dst[0:], logMagic)
	binary.LittleEndian.PutUint32(dst[4:], logIdx)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint32(dst[16:], writer)
	copyBody(dst[20:60], rotation(logIdx, writer, seq))
	binary.LittleEndian.PutUint32(dst[60:], crc32.ChecksumIEEE(dst[:60]))
}

// logModel is the oracle's model of one append-only object.
type logModel struct {
	issued uint64
	done   []uint64 // seqs whose reply arrived, in arrival order
	seen   []bool   // scratch for checkRead, indexed by seq
}

func (l *logModel) begin() uint64 { l.issued++; return l.issued }

func (l *logModel) finish(seq uint64) { l.done = append(l.done, seq) }

// checkRead validates a log payload: every record intact, belonging to this
// log, issued and unique; at the linearizable level every append whose reply
// arrived before the read began (the first doneAtStart entries of done) must
// be present.
func (l *logModel) checkRead(b []byte, logIdx uint32, doneAtStart int, linearizable bool) error {
	if len(b)%logRecLen != 0 {
		return fmt.Errorf("log payload of %d bytes is not a whole number of records", len(b))
	}
	if cap(l.seen) < int(l.issued)+1 {
		l.seen = make([]bool, 2*int(l.issued)+8)
	}
	seen := l.seen[:l.issued+1]
	for i := range seen {
		seen[i] = false
	}
	for off := 0; off < len(b); off += logRecLen {
		rec := b[off : off+logRecLen]
		if binary.LittleEndian.Uint32(rec[0:]) != logMagic ||
			binary.LittleEndian.Uint32(rec[60:]) != crc32.ChecksumIEEE(rec[:60]) {
			return fmt.Errorf("log record at offset %d is corrupt", off)
		}
		if got := binary.LittleEndian.Uint32(rec[4:]); got != logIdx {
			return fmt.Errorf("log record at offset %d belongs to log %d, not %d", off, got, logIdx)
		}
		seq := binary.LittleEndian.Uint64(rec[8:])
		if seq == 0 || seq > l.issued {
			return fmt.Errorf("log record seq %d was never issued", seq)
		}
		if seen[seq] {
			return fmt.Errorf("log record seq %d appears twice", seq)
		}
		seen[seq] = true
	}
	if linearizable {
		for _, seq := range l.done[:doneAtStart] {
			if !seen[seq] {
				return fmt.Errorf("append %d completed before the read began but is missing", seq)
			}
		}
	}
	return nil
}
