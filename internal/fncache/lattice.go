// Package fncache implements Cloudburst-style colocated function caches:
// per-node caches keyed by object reference, living next to the faas
// executors so functions touch hot state at DRAM cost instead of paying a
// store round trip (PAPERS.md: Cloudburst; ROADMAP item 4).
//
// Coherence follows the paper's two-entry consistency menu. Linearizable
// objects are cached under virtual-time leases with invalidate-on-write:
// every write path bumps the key's epoch before it mutates the store, so a
// cached entry can never outlive the data it copies. Eventual objects are
// cached as lattice CRDT values (this file): commutative, associative,
// idempotent merge functions that replicas can apply in any order and
// still converge — the mathematical contract that makes "merge locally,
// gossip later" safe. The one lattice type is Cloudburst's last-writer-wins
// register, LWWReg.
package fncache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fault"
)

// tagLWW is the encoding tag: every encoded lattice starts with it, so store
// payloads self-identify as mergeable (the consistency layer's anti-entropy
// asks Mergeable before replacing a concurrent update with LWW).
const tagLWW byte = 0xC1

// ErrNotLattice reports a payload that does not decode as a lattice value.
var ErrNotLattice = fault.Fatal("fncache: payload is not an encoded lattice")

// Mergeable reports whether a payload carries a lattice encoding.
func Mergeable(b []byte) bool { return len(b) > 0 && b[0] == tagLWW }

// Decode parses an encoded lattice value.
func Decode(b []byte) (LWWReg, error) {
	switch {
	case len(b) == 0:
		return LWWReg{}, ErrNotLattice
	case b[0] != tagLWW:
		return LWWReg{}, fmt.Errorf("%w: tag 0x%02x", ErrNotLattice, b[0])
	case len(b) < 13:
		return LWWReg{}, fmt.Errorf("%w: short register", ErrNotLattice)
	}
	r := LWWReg{T: binary.BigEndian.Uint64(b[1:]), Actor: int32(binary.BigEndian.Uint32(b[9:]))}
	n, k := binary.Uvarint(b[13:])
	if k <= 0 {
		return LWWReg{}, fmt.Errorf("%w: truncated varint", ErrNotLattice)
	}
	val := b[13+k:]
	if uint64(len(val)) < n {
		return LWWReg{}, fmt.Errorf("%w: truncated payload", ErrNotLattice)
	}
	if extra := uint64(len(val)) - n; extra != 0 {
		return LWWReg{}, fmt.Errorf("%w: %d trailing bytes", ErrNotLattice, extra)
	}
	r.Val = append([]byte(nil), val...)
	return r, nil
}

// MergePayload merges two encoded lattice values. ok is false when either
// payload is not a lattice — the caller falls back to last-writer-wins.
func MergePayload(a, b []byte) ([]byte, bool) {
	av, err := Decode(a)
	if err != nil {
		return nil, false
	}
	bv, err := Decode(b)
	if err != nil {
		return nil, false
	}
	return av.Merge(bv).Encode(), true
}

// PayloadLeq reports whether encoded lattice a ≤ b. It errors when either
// payload is not a lattice.
func PayloadLeq(a, b []byte) (bool, error) {
	av, err := Decode(a)
	if err != nil {
		return false, err
	}
	bv, err := Decode(b)
	if err != nil {
		return false, err
	}
	return av.Leq(bv), nil
}

// LWWReg is a last-writer-wins register: a timestamped value where merge
// keeps the greater (T, Actor, Val) triple. It is a join-semilattice: Merge
// is the least upper bound (commutative, associative, idempotent — the Val
// tiebreak keeps it commutative even when two actors collide on (T,
// Actor)), and Leq is the induced order (a ≤ b ⇔ merge(a,b) = b). Encode
// renders a deterministic tagged binary form — equal registers encode
// byte-identically, so convergence checks can compare encodings.
type LWWReg struct {
	T     uint64
	Actor int32
	Val   []byte
}

func (r LWWReg) less(o LWWReg) bool {
	if r.T != o.T {
		return r.T < o.T
	}
	if r.Actor != o.Actor {
		return r.Actor < o.Actor
	}
	return string(r.Val) < string(o.Val)
}

// Merge keeps the greater register.
func (r LWWReg) Merge(o LWWReg) LWWReg {
	if r.less(o) {
		return o
	}
	return r
}

// Leq reports r ≤ o in the register order.
func (r LWWReg) Leq(o LWWReg) bool { return !o.less(r) }

// Encode renders the register.
func (r LWWReg) Encode() []byte {
	b := []byte{tagLWW}
	b = binary.BigEndian.AppendUint64(b, r.T)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Actor))
	b = binary.AppendUvarint(b, uint64(len(r.Val)))
	return append(b, r.Val...)
}
