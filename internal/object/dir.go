package object

import (
	"sort"
	"strings"
)

// Directory operations. Directory entries map names to object IDs.
// Whiteouts mark names as deleted in union-layer semantics (§3.2 cites
// union file systems as a PCSI feature); they are invisible to plain
// lookups but consulted by the namespace layer.

// validName reports whether s is a legal entry name.
func validName(s string) bool {
	return s != "" && s != "." && s != ".." && !strings.ContainsAny(s, "/\x00")
}

// Link adds name -> child. The directory's mutability gates mutation:
// IMMUTABLE and FIXED_SIZE directories reject new entries; APPEND_ONLY
// directories accept new names but never replacement or removal.
func (o *Object) Link(name string, child ID) error {
	if o.kind != Directory {
		return ErrWrongKind
	}
	if !validName(name) {
		return ErrInvalidName
	}
	switch o.mut {
	case Immutable:
		return ErrImmutable
	case FixedSize:
		return ErrFixedSize
	}
	if _, ok := o.entries[name]; ok {
		return ErrExists
	}
	o.entries[name] = child
	delete(o.whiteouts, name)
	o.bump()
	return nil
}

// Unlink removes name. Only MUTABLE directories support removal.
func (o *Object) Unlink(name string) error {
	if o.kind != Directory {
		return ErrWrongKind
	}
	switch o.mut {
	case Immutable:
		return ErrImmutable
	case AppendOnly:
		return ErrAppendOnly
	case FixedSize:
		return ErrFixedSize
	}
	if _, ok := o.entries[name]; !ok {
		return ErrNotFound
	}
	delete(o.entries, name)
	o.bump()
	return nil
}

// Lookup resolves name to a child ID.
func (o *Object) Lookup(name string) (ID, error) {
	if o.kind != Directory {
		return NilID, ErrWrongKind
	}
	id, ok := o.entries[name]
	if !ok {
		return NilID, ErrNotFound
	}
	return id, nil
}

// Entries returns entry names in sorted order.
func (o *Object) Entries() []string {
	if o.kind != Directory {
		return nil
	}
	names := make([]string, 0, len(o.entries))
	for n := range o.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EntryCount returns the number of entries.
func (o *Object) EntryCount() int { return len(o.entries) }

// Whiteout records that name is deleted in this (upper) layer, hiding any
// same-named entry in lower layers. The entry itself, if present, is
// removed.
func (o *Object) Whiteout(name string) error {
	if o.kind != Directory {
		return ErrWrongKind
	}
	if !validName(name) {
		return ErrInvalidName
	}
	switch o.mut {
	case Immutable:
		return ErrImmutable
	case AppendOnly:
		return ErrAppendOnly
	case FixedSize:
		return ErrFixedSize
	}
	delete(o.entries, name)
	o.whiteouts[name] = true
	o.bump()
	return nil
}

// IsWhiteout reports whether name is whited out in this layer.
func (o *Object) IsWhiteout(name string) bool { return o.whiteouts[name] }

// Whiteouts returns all whited-out names, sorted.
func (o *Object) Whiteouts() []string {
	names := make([]string, 0, len(o.whiteouts))
	for n := range o.whiteouts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ChildIDs returns the IDs of all entries (for GC marking).
func (o *Object) ChildIDs() []ID {
	if o.kind != Directory {
		return nil
	}
	ids := make([]ID, 0, len(o.entries))
	for _, id := range o.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FIFO operations: bounded-order message queues used for inter-function
// plumbing (Figure 2 connects the GPU stage to post-processing by a FIFO).

// Push enqueues a message. FIFOs ignore the byte-level mutability checks —
// their content is transient — but IMMUTABLE still freezes them.
func (o *Object) Push(msg []byte) error {
	if o.kind != FIFO {
		return ErrWrongKind
	}
	if o.mut == Immutable {
		return ErrImmutable
	}
	o.fifo = append(o.fifo, append([]byte(nil), msg...))
	o.bump()
	return nil
}

// Pop dequeues the oldest message.
func (o *Object) Pop() ([]byte, error) {
	if o.kind != FIFO {
		return nil, ErrWrongKind
	}
	if len(o.fifo) == 0 {
		return nil, ErrFIFOEmpty
	}
	msg := o.fifo[0]
	o.fifo = o.fifo[1:]
	o.bump()
	return msg, nil
}

// QueueLen returns the number of queued FIFO messages.
func (o *Object) QueueLen() int { return len(o.fifo) }

// Socket operations: a bidirectional message pipe, the "TCP Connection"
// object of Figure 2. End 0 is the client side, end 1 the server side;
// SockSend(end, m) enqueues toward the opposite end.

func validEnd(end int) bool { return end == 0 || end == 1 }

// SockSend enqueues a message from the given end toward the other.
func (o *Object) SockSend(end int, msg []byte) error {
	if o.kind != Socket {
		return ErrWrongKind
	}
	if !validEnd(end) {
		return ErrBadEnd
	}
	if o.sockState == SockClosed {
		return ErrSockClosed
	}
	o.sock[end] = append(o.sock[end], append([]byte(nil), msg...))
	o.bump()
	return nil
}

// SockRecv dequeues the oldest message sent toward the given end.
// Receiving from a closed socket drains remaining messages, then reports
// ErrSockClosed (like a TCP FIN).
func (o *Object) SockRecv(end int) ([]byte, error) {
	if o.kind != Socket {
		return nil, ErrWrongKind
	}
	if !validEnd(end) {
		return nil, ErrBadEnd
	}
	from := 1 - end
	if len(o.sock[from]) == 0 {
		if o.sockState != SockOpen {
			return nil, ErrSockClosed
		}
		return nil, ErrSockEmpty
	}
	msg := o.sock[from][0]
	o.sock[from] = o.sock[from][1:]
	o.bump()
	return msg, nil
}

// SockClose closes the socket: no further sends; receivers drain then see
// ErrSockClosed.
func (o *Object) SockClose() error {
	if o.kind != Socket {
		return ErrWrongKind
	}
	o.sockState = SockClosed
	o.bump()
	return nil
}

// SockPending reports queued messages toward the given end.
func (o *Object) SockPending(end int) int {
	if o.kind != Socket || !validEnd(end) {
		return 0
	}
	return len(o.sock[1-end])
}

// Device operations.

// SetDriver installs the device driver (once, at creation time).
func (o *Object) SetDriver(d DeviceDriver) error {
	if o.kind != Device {
		return ErrWrongKind
	}
	o.driver = d
	return nil
}

// Ioctl invokes the device driver.
func (o *Object) Ioctl(op string, arg []byte) ([]byte, error) {
	if o.kind != Device {
		return nil, ErrWrongKind
	}
	if o.driver == nil {
		return nil, ErrDeviceNoDriver
	}
	return o.driver.Ioctl(op, arg)
}
