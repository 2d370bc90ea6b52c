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
// gossip later" safe.
package fncache

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/fault"
)

// Lattice is a join-semilattice value: Merge is the least upper bound and
// must be commutative, associative, and idempotent; Leq is the induced
// partial order (a ≤ b ⇔ merge(a,b) = b). Encode renders a deterministic
// tagged binary form — equal lattice values encode byte-identically, so
// convergence checks can compare encodings.
type Lattice interface {
	Merge(other Lattice) Lattice
	Leq(other Lattice) bool
	Encode() []byte
}

// Encoding tags. Every encoded lattice starts with one of these, so store
// payloads self-identify as mergeable (the consistency layer's anti-entropy
// asks Mergeable before replacing a concurrent update with LWW).
const (
	tagLWW      byte = 0xC1
	tagGCounter byte = 0xC2
	tagORSet    byte = 0xC3
	tagLMap     byte = 0xC4
)

// ErrNotLattice reports a payload that does not decode as a lattice value.
var ErrNotLattice = fault.Fatal("fncache: payload is not an encoded lattice")

// Mergeable reports whether a payload carries a lattice encoding.
func Mergeable(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	switch b[0] {
	case tagLWW, tagGCounter, tagORSet, tagLMap:
		return true
	}
	return false
}

// Decode parses an encoded lattice value.
func Decode(b []byte) (Lattice, error) {
	v, rest, err := decodeAny(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrNotLattice, len(rest))
	}
	return v, nil
}

// MergePayload merges two encoded lattice values of the same type. ok is
// false when either payload is not a lattice or the types differ — the
// caller falls back to last-writer-wins.
func MergePayload(a, b []byte) ([]byte, bool) {
	if len(a) == 0 || len(b) == 0 || a[0] != b[0] {
		return nil, false
	}
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
// payload is not a lattice or the types differ.
func PayloadLeq(a, b []byte) (bool, error) {
	if len(a) == 0 || len(b) == 0 || a[0] != b[0] {
		return false, ErrNotLattice
	}
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

// ---------------------------------------------------------------------------
// LWW register

// LWWReg is a last-writer-wins register: a timestamped value where merge
// keeps the greater (T, Actor, Val) triple. The Val tiebreak makes merge
// commutative even when two actors collide on (T, Actor).
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
func (r LWWReg) Merge(other Lattice) Lattice {
	o := other.(LWWReg)
	if r.less(o) {
		return o
	}
	return r
}

// Leq reports r ≤ other in the register order.
func (r LWWReg) Leq(other Lattice) bool {
	o := other.(LWWReg)
	return !o.less(r)
}

// Encode renders the register.
func (r LWWReg) Encode() []byte {
	b := []byte{tagLWW}
	b = binary.BigEndian.AppendUint64(b, r.T)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Actor))
	b = binary.AppendUvarint(b, uint64(len(r.Val)))
	return append(b, r.Val...)
}

// ---------------------------------------------------------------------------
// G-counter

// GCounter is a grow-only counter: one monotone slot per actor, merged by
// element-wise maximum.
type GCounter map[int32]uint64

// Add bumps the actor's slot and returns the updated counter.
func (g GCounter) Add(actor int32, n uint64) GCounter {
	out := make(GCounter, len(g)+1)
	for k, v := range g {
		out[k] = v
	}
	out[actor] += n
	return out
}

// Count sums every actor's contribution.
func (g GCounter) Count() uint64 {
	var n uint64
	for _, v := range g {
		n += v
	}
	return n
}

// Merge takes the element-wise maximum.
func (g GCounter) Merge(other Lattice) Lattice {
	o := other.(GCounter)
	out := make(GCounter, len(g)+len(o))
	for k, v := range g {
		out[k] = v
	}
	for k, v := range o {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// Leq reports whether every slot of g is ≤ other's.
func (g GCounter) Leq(other Lattice) bool {
	o := other.(GCounter)
	for k, v := range g {
		if v > o[k] {
			return false
		}
	}
	return true
}

// Encode renders slots in sorted actor order.
func (g GCounter) Encode() []byte {
	actors := make([]int32, 0, len(g))
	for k, v := range g {
		if v != 0 {
			actors = append(actors, k)
		}
	}
	sort.Slice(actors, func(i, j int) bool { return actors[i] < actors[j] })
	b := []byte{tagGCounter}
	b = binary.AppendUvarint(b, uint64(len(actors)))
	for _, a := range actors {
		b = binary.BigEndian.AppendUint32(b, uint32(a))
		b = binary.AppendUvarint(b, g[a])
	}
	return b
}

// ---------------------------------------------------------------------------
// OR-set

// ORSet is an observed-remove set: adds carry unique tags, removes
// tombstone the tags they observed, and merge unions both sides — so a
// concurrent add always survives a remove that never saw it.
type ORSet struct {
	Adds  map[string]map[uint64]bool
	Tombs map[uint64]bool
}

// NewORSet returns an empty set.
func NewORSet() ORSet {
	return ORSet{Adds: make(map[string]map[uint64]bool), Tombs: make(map[uint64]bool)}
}

func (s ORSet) clone() ORSet {
	out := NewORSet()
	for e, tags := range s.Adds {
		m := make(map[uint64]bool, len(tags))
		for t := range tags {
			m[t] = true
		}
		out.Adds[e] = m
	}
	for t := range s.Tombs {
		out.Tombs[t] = true
	}
	return out
}

// Add inserts elem under a fresh unique tag and returns the updated set.
func (s ORSet) Add(elem string, tag uint64) ORSet {
	out := s.clone()
	if out.Adds[elem] == nil {
		out.Adds[elem] = make(map[uint64]bool)
	}
	out.Adds[elem][tag] = true
	return out
}

// Remove tombstones every currently observed tag of elem.
func (s ORSet) Remove(elem string) ORSet {
	out := s.clone()
	for t := range out.Adds[elem] {
		out.Tombs[t] = true
	}
	return out
}

// Contains reports whether elem has a live (untombstoned) tag.
func (s ORSet) Contains(elem string) bool {
	for t := range s.Adds[elem] {
		if !s.Tombs[t] {
			return true
		}
	}
	return false
}

// Merge unions adds and tombstones.
func (s ORSet) Merge(other Lattice) Lattice {
	o := other.(ORSet)
	out := s.clone()
	for e, tags := range o.Adds {
		if out.Adds[e] == nil {
			out.Adds[e] = make(map[uint64]bool, len(tags))
		}
		for t := range tags {
			out.Adds[e][t] = true
		}
	}
	for t := range o.Tombs {
		out.Tombs[t] = true
	}
	return out
}

// Leq reports whether s's adds and tombstones are subsets of other's.
func (s ORSet) Leq(other Lattice) bool {
	o := other.(ORSet)
	for e, tags := range s.Adds {
		for t := range tags {
			if !o.Adds[e][t] {
				return false
			}
		}
	}
	for t := range s.Tombs {
		if !o.Tombs[t] {
			return false
		}
	}
	return true
}

// Encode renders elements, tags, and tombstones in sorted order.
func (s ORSet) Encode() []byte {
	elems := make([]string, 0, len(s.Adds))
	for e := range s.Adds {
		if len(s.Adds[e]) > 0 {
			elems = append(elems, e)
		}
	}
	sort.Strings(elems)
	b := []byte{tagORSet}
	b = binary.AppendUvarint(b, uint64(len(elems)))
	for _, e := range elems {
		b = binary.AppendUvarint(b, uint64(len(e)))
		b = append(b, e...)
		tags := make([]uint64, 0, len(s.Adds[e]))
		for t := range s.Adds[e] {
			tags = append(tags, t)
		}
		sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
		b = binary.AppendUvarint(b, uint64(len(tags)))
		for _, t := range tags {
			b = binary.AppendUvarint(b, t)
		}
	}
	tombs := make([]uint64, 0, len(s.Tombs))
	for t := range s.Tombs {
		tombs = append(tombs, t)
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
	b = binary.AppendUvarint(b, uint64(len(tombs)))
	for _, t := range tombs {
		b = binary.AppendUvarint(b, t)
	}
	return b
}

// ---------------------------------------------------------------------------
// Map of lattices

// LMap is a map whose values are themselves lattices, merged keywise —
// Cloudburst's composite lattice type (a map of registers/counters/sets).
type LMap map[string]Lattice

// Set returns a copy with key bound to v.
func (m LMap) Set(key string, v Lattice) LMap {
	out := make(LMap, len(m)+1)
	for k, lv := range m {
		out[k] = lv
	}
	out[key] = v
	return out
}

// Merge unions keys, merging values present on both sides.
func (m LMap) Merge(other Lattice) Lattice {
	o := other.(LMap)
	out := make(LMap, len(m)+len(o))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range o {
		if have, ok := out[k]; ok {
			out[k] = have.Merge(v)
		} else {
			out[k] = v
		}
	}
	return out
}

// Leq reports whether every key of m exists in other with a ≥ value.
func (m LMap) Leq(other Lattice) bool {
	o := other.(LMap)
	for k, v := range m {
		ov, ok := o[k]
		if !ok || !v.Leq(ov) {
			return false
		}
	}
	return true
}

// Encode renders entries in sorted key order with nested encodings.
func (m LMap) Encode() []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte{tagLMap}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		enc := m[k].Encode()
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	return b
}

// ---------------------------------------------------------------------------
// Decoding

func decodeAny(b []byte) (Lattice, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrNotLattice
	}
	switch b[0] {
	case tagLWW:
		return decodeLWW(b[1:])
	case tagGCounter:
		return decodeGCounter(b[1:])
	case tagORSet:
		return decodeORSet(b[1:])
	case tagLMap:
		return decodeLMap(b[1:])
	default:
		return nil, nil, fmt.Errorf("%w: tag 0x%02x", ErrNotLattice, b[0])
	}
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrNotLattice)
	}
	return v, b[n:], nil
}

func takeBytes(b []byte, n uint64) ([]byte, []byte, error) {
	if uint64(len(b)) < n {
		return nil, nil, fmt.Errorf("%w: truncated payload", ErrNotLattice)
	}
	return b[:n], b[n:], nil
}

func decodeLWW(b []byte) (Lattice, []byte, error) {
	if len(b) < 12 {
		return nil, nil, fmt.Errorf("%w: short register", ErrNotLattice)
	}
	r := LWWReg{T: binary.BigEndian.Uint64(b), Actor: int32(binary.BigEndian.Uint32(b[8:]))}
	n, rest, err := takeUvarint(b[12:])
	if err != nil {
		return nil, nil, err
	}
	val, rest, err := takeBytes(rest, n)
	if err != nil {
		return nil, nil, err
	}
	r.Val = append([]byte(nil), val...)
	return r, rest, nil
}

func decodeGCounter(b []byte) (Lattice, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	g := make(GCounter, n)
	for i := uint64(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("%w: short counter slot", ErrNotLattice)
		}
		actor := int32(binary.BigEndian.Uint32(rest))
		var v uint64
		v, rest, err = takeUvarint(rest[4:])
		if err != nil {
			return nil, nil, err
		}
		g[actor] = v
	}
	return g, rest, nil
}

func decodeORSet(b []byte) (Lattice, []byte, error) {
	s := NewORSet()
	nElems, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < nElems; i++ {
		var n uint64
		n, rest, err = takeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		var eb []byte
		eb, rest, err = takeBytes(rest, n)
		if err != nil {
			return nil, nil, err
		}
		elem := string(eb)
		var nTags uint64
		nTags, rest, err = takeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		tags := make(map[uint64]bool, nTags)
		for j := uint64(0); j < nTags; j++ {
			var t uint64
			t, rest, err = takeUvarint(rest)
			if err != nil {
				return nil, nil, err
			}
			tags[t] = true
		}
		s.Adds[elem] = tags
	}
	nTombs, rest, err := takeUvarint(rest)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < nTombs; i++ {
		var t uint64
		t, rest, err = takeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		s.Tombs[t] = true
	}
	return s, rest, nil
}

func decodeLMap(b []byte) (Lattice, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	m := make(LMap, n)
	for i := uint64(0); i < n; i++ {
		var kn uint64
		kn, rest, err = takeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		var kb []byte
		kb, rest, err = takeBytes(rest, kn)
		if err != nil {
			return nil, nil, err
		}
		var vn uint64
		vn, rest, err = takeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		var vb []byte
		vb, rest, err = takeBytes(rest, vn)
		if err != nil {
			return nil, nil, err
		}
		v, err := Decode(vb)
		if err != nil {
			return nil, nil, err
		}
		m[string(kb)] = v
	}
	return m, rest, nil
}
