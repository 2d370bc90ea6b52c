// Package object defines the PCSI object model (§3.2): typed objects —
// regular files, directories, FIFOs, sockets, and device interfaces — with
// versioned payloads and the four-level mutability lattice of the paper's
// Figure 1.
//
// Mutability transitions only restrict: MUTABLE may become APPEND_ONLY or
// FIXED_SIZE, and either of those may become IMMUTABLE. Once content is
// frozen (every byte of an IMMUTABLE object; the written prefix of an
// APPEND_ONLY object) it never changes, which is what makes it safe to
// cache anywhere.
package object

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/fault"
)

// ID identifies an object. IDs are allocated by stores and never reused.
type ID uint64

// NilID is the zero, never-valid object ID.
const NilID ID = 0

// String renders the ID.
func (id ID) String() string { return fmt.Sprintf("obj-%d", uint64(id)) }

// Kind enumerates the object types of §3.2 ("directories, regular files,
// FIFOs, sockets, and device interfaces to system services").
type Kind uint8

// The PCSI object kinds.
const (
	Regular Kind = iota
	Directory
	FIFO
	Socket
	Device
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Regular:
		return "regular"
	case Directory:
		return "directory"
	case FIFO:
		return "fifo"
	case Socket:
		return "socket"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds returns all object kinds.
func Kinds() []Kind {
	ks := make([]Kind, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// Mutability is an object's position in the Figure 1 lattice.
type Mutability uint8

// The four mutability levels of Figure 1.
const (
	Mutable Mutability = iota
	AppendOnly
	FixedSize
	Immutable
)

// String names the level using the paper's capitalisation.
func (m Mutability) String() string {
	switch m {
	case Mutable:
		return "MUTABLE"
	case AppendOnly:
		return "APPEND_ONLY"
	case FixedSize:
		return "FIXED_SIZE"
	case Immutable:
		return "IMMUTABLE"
	default:
		return fmt.Sprintf("mutability(%d)", uint8(m))
	}
}

// Levels returns all mutability levels.
func Levels() []Mutability { return []Mutability{Mutable, AppendOnly, FixedSize, Immutable} }

// CanTransition reports whether Figure 1 permits moving from m to n.
// Self-transitions are allowed (no-ops); everything else must strictly
// restrict: MUTABLE → {APPEND_ONLY, FIXED_SIZE, IMMUTABLE},
// APPEND_ONLY → IMMUTABLE, FIXED_SIZE → IMMUTABLE.
func (m Mutability) CanTransition(n Mutability) bool {
	if m == n {
		return true
	}
	switch m {
	case Mutable:
		return n == AppendOnly || n == FixedSize || n == Immutable
	case AppendOnly, FixedSize:
		return n == Immutable
	case Immutable:
		return false
	default:
		return false
	}
}

// CacheStable reports whether content written under this level can be
// cached anywhere without invalidation: true for IMMUTABLE (all bytes) and
// APPEND_ONLY (the written prefix), per §3.3.
func (m Mutability) CacheStable() bool { return m == Immutable || m == AppendOnly }

// Errors returned by object operations.
var (
	ErrImmutable      = fault.Fatal("object: write to immutable object")
	ErrAppendOnly     = fault.Fatal("object: overwrite of append-only content")
	ErrFixedSize      = fault.Fatal("object: resize of fixed-size object")
	ErrBadTransition  = fault.Fatal("object: mutability transition not allowed")
	ErrOutOfRange     = fault.Fatal("object: offset out of range")
	ErrWrongKind      = fault.Fatal("object: operation not supported for kind")
	ErrFIFOEmpty      = fault.Fatal("object: fifo empty")
	ErrExists         = fault.Fatal("object: directory entry exists")
	ErrNotFound       = fault.Fatal("object: not found")
	ErrNotEmpty       = fault.Fatal("object: directory not empty")
	ErrInvalidName    = fault.Fatal("object: invalid entry name")
	ErrDeviceNoDriver = fault.Fatal("object: device has no driver")
	ErrSockClosed     = fault.Fatal("object: socket closed")
	ErrSockEmpty      = fault.Fatal("object: socket direction empty")
	ErrBadEnd         = fault.Fatal("object: socket end must be 0 (client) or 1 (server)")
)

// SockState is a socket object's connection state.
type SockState uint8

// Socket states.
const (
	SockOpen SockState = iota
	SockHalfClosed
	SockClosed
)

// Object is a PCSI object. Objects are not safe for concurrent mutation;
// the consistency layer serialises access per replica.
type Object struct {
	id      ID
	kind    Kind
	mut     Mutability
	version uint64
	data    []byte

	// Directory state (kind == Directory).
	entries   map[string]ID
	whiteouts map[string]bool

	// FIFO state (kind == FIFO): queued messages.
	fifo [][]byte

	// Socket state (kind == Socket): one message queue per direction
	// (0: client→server, 1: server→client) plus connection state.
	sock      [2][][]byte
	sockState SockState

	// Device state (kind == Device): a driver invoked on Ioctl.
	driver DeviceDriver

	// Labels are free-form metadata (consistency level, content type, ...).
	Labels map[string]string
}

// DeviceDriver handles operations on a Device object — the paper's
// "device interfaces to system services".
type DeviceDriver interface {
	// Ioctl performs a device-specific operation.
	Ioctl(op string, arg []byte) ([]byte, error)
}

// New creates an object of the given kind, initially MUTABLE, version 1.
func New(id ID, kind Kind) *Object {
	o := &Object{id: id, kind: kind, mut: Mutable, version: 1, Labels: make(map[string]string)}
	if kind == Directory {
		o.entries = make(map[string]ID)
		o.whiteouts = make(map[string]bool)
	}
	return o
}

// ID returns the object's identity.
func (o *Object) ID() ID { return o.id }

// Kind returns the object's kind.
func (o *Object) Kind() Kind { return o.kind }

// Mutability returns the current level.
func (o *Object) Mutability() Mutability { return o.mut }

// Version returns the object's version, incremented by every mutation.
func (o *Object) Version() uint64 { return o.version }

// Size returns the payload size in bytes.
func (o *Object) Size() int64 { return int64(len(o.data)) }

// SetMutability moves the object along the Figure 1 lattice.
func (o *Object) SetMutability(n Mutability) error {
	if !o.mut.CanTransition(n) {
		return fmt.Errorf("%w: %v -> %v", ErrBadTransition, o.mut, n)
	}
	if o.mut != n {
		o.mut = n
		o.version++
	}
	return nil
}

// bump records a mutation.
func (o *Object) bump() { o.version++ }

// ReadAt reads up to len(b) bytes starting at off and reports the count.
// Reading at or past EOF returns 0, nil (PCSI reads are not error-at-EOF).
func (o *Object) ReadAt(b []byte, off int64) (int, error) {
	if o.kind == Directory {
		return 0, fmt.Errorf("%w: read on %v", ErrWrongKind, o.kind)
	}
	if off < 0 {
		return 0, ErrOutOfRange
	}
	if off >= int64(len(o.data)) {
		return 0, nil
	}
	return copy(b, o.data[off:]), nil
}

// Read returns the entire payload: a private copy below IMMUTABLE, and a
// read-only view of the frozen bytes at IMMUTABLE. A payload array may have
// more than one holder only while its object is IMMUTABLE — the terminal
// level, where every write is refused and ApplyState installs a slice rather
// than writing through one — so a view never changes; its capacity is
// clipped so that a caller's append cannot reach the array. Callers must
// not write into a view.
func (o *Object) Read() []byte { return share(o.data, o.mut) }

// share is the one place a payload array gains a holder: data itself,
// capacity-clipped, when the level it is held at is IMMUTABLE; otherwise a
// private copy.
func share(data []byte, mut Mutability) []byte {
	if mut == Immutable {
		return data[:len(data):len(data)]
	}
	return append([]byte(nil), data...)
}

// WriteAt writes b at offset off, enforcing the mutability level:
//   - MUTABLE: any offset; the object grows as needed.
//   - FIXED_SIZE: the write must fall entirely within the current size.
//   - APPEND_ONLY: only writes that start exactly at EOF are allowed
//     (equivalent to Append).
//   - IMMUTABLE: no writes.
func (o *Object) WriteAt(b []byte, off int64) (int, error) {
	if o.kind == Directory {
		return 0, fmt.Errorf("%w: write on %v", ErrWrongKind, o.kind)
	}
	if off < 0 {
		return 0, ErrOutOfRange
	}
	switch o.mut {
	case Immutable:
		return 0, ErrImmutable
	case AppendOnly:
		if off != int64(len(o.data)) {
			return 0, ErrAppendOnly
		}
	case FixedSize:
		if off+int64(len(b)) > int64(len(o.data)) {
			return 0, ErrFixedSize
		}
	}
	if old, end := int64(len(o.data)), off+int64(len(b)); end > old {
		// The array has one holder below IMMUTABLE, so it grows in place.
		// Spare capacity may hold bytes a Truncate cut off: zero the hole.
		o.data = slices.Grow(o.data, int(end-old))[:end]
		if off > old {
			clear(o.data[old:off])
		}
	}
	copy(o.data[off:], b)
	o.bump()
	return len(b), nil
}

// Append adds b at EOF (MUTABLE and APPEND_ONLY only).
func (o *Object) Append(b []byte) error {
	_, err := o.WriteAt(b, int64(len(o.data)))
	return err
}

// Truncate resizes the payload (MUTABLE only).
func (o *Object) Truncate(n int64) error {
	if o.kind == Directory {
		return fmt.Errorf("%w: truncate on %v", ErrWrongKind, o.kind)
	}
	if n < 0 {
		return ErrOutOfRange
	}
	switch o.mut {
	case Immutable:
		return ErrImmutable
	case AppendOnly:
		return ErrAppendOnly
	case FixedSize:
		return ErrFixedSize
	}
	if n <= int64(len(o.data)) {
		o.data = o.data[:n]
	} else {
		grown := make([]byte, n)
		copy(grown, o.data)
		o.data = grown
	}
	o.bump()
	return nil
}

// SetData replaces the entire payload (a whole-object put). Allowed only
// at MUTABLE, or FIXED_SIZE when the size is unchanged.
func (o *Object) SetData(b []byte) error {
	if o.kind == Directory {
		return fmt.Errorf("%w: put on %v", ErrWrongKind, o.kind)
	}
	switch o.mut {
	case Immutable:
		return ErrImmutable
	case AppendOnly:
		return ErrAppendOnly
	case FixedSize:
		if int64(len(b)) != int64(len(o.data)) {
			return ErrFixedSize
		}
	}
	// Reuses the object's own array (one holder below IMMUTABLE); append is
	// a memmove, so b may even overlap it.
	o.data = append(o.data[:0], b...)
	o.bump()
	return nil
}

// ContentHash returns the hex SHA-256 of the payload.
func (o *Object) ContentHash() string {
	h := sha256.Sum256(o.data)
	return hex.EncodeToString(h[:])
}

// Clone returns a deep copy under a new ID, preserving content, kind,
// mutability, and version; used for copy-up in union namespaces and
// replica transfer. The clone of an IMMUTABLE object shares its frozen
// payload (see Read) instead of copying it.
func (o *Object) Clone(newID ID) *Object {
	c := New(newID, o.kind)
	c.mut = o.mut
	c.version = o.version
	c.data = o.Read()
	for k, v := range o.Labels {
		c.Labels[k] = v
	}
	if o.kind == Directory {
		for k, v := range o.entries {
			c.entries[k] = v
		}
		for k := range o.whiteouts {
			c.whiteouts[k] = true
		}
	}
	for _, m := range o.fifo {
		c.fifo = append(c.fifo, append([]byte(nil), m...))
	}
	for dir := range o.sock {
		for _, m := range o.sock[dir] {
			c.sock[dir] = append(c.sock[dir], append([]byte(nil), m...))
		}
	}
	c.sockState = o.sockState
	c.driver = o.driver
	return c
}

// restore support for replication: ApplyState overwrites payload and
// version wholesale (used by anti-entropy; bypasses mutability because the
// authoritative replica already enforced it). Installing at IMMUTABLE shares
// data, which the caller must not write afterwards (see Read); any other
// level installs a private copy, never reusing the old array, which may
// have been shared.
func (o *Object) ApplyState(data []byte, version uint64, mut Mutability) {
	o.data = share(data, mut)
	o.version = version
	o.mut = mut
}
