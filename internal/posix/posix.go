// Package posix implements a minimal single-server, POSIX-flavoured file
// interface used to demonstrate §2.2's argument: interfaces designed with
// the assumption that everything is local are fast locally (a 500 ns
// system call, Table 1) but behave badly when the backing store is
// actually remote — calls block for network time the interface never
// surfaces, and an unreachable server produces errors a local file system
// could never return.
package posix

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// SyscallCost is Table 1's "Linux system call: 500 ns", paid on every
// operation regardless of where the data lives.
const SyscallCost = 500 * time.Nanosecond

// Errors mirroring the awkward remote cases.
var (
	ErrBadFD = errors.New("posix: bad file descriptor")
	// ErrEIO is what a POSIX interface is forced to return when the
	// "local" disk is a dead remote server — the NFS problem the paper
	// cites.
	ErrEIO    = errors.New("posix: input/output error (EIO)")
	ErrNoEnt  = errors.New("posix: no such file or directory (ENOENT)")
	ErrExists = errors.New("posix: file exists (EEXIST)")
)

// FS is a file system with POSIX-shaped calls. Local by default; Remote
// mounts put a network between the call and the data without changing the
// interface.
type FS struct {
	st    *store.Store
	net   *simnet.Network
	local simnet.NodeID
	// remote is the backing server when mounted remotely.
	remote    simnet.NodeID
	isRemote  bool
	reachable bool

	files map[string][]byte
	fds   map[int]*fd
	next  int
}

type fd struct {
	name string
	off  int64
}

// NewLocal returns a purely local FS on the given node.
func NewLocal(net *simnet.Network, node simnet.NodeID) *FS {
	return &FS{
		st: store.New(media.NVMe), net: net, local: node,
		reachable: true,
		files:     make(map[string][]byte),
		fds:       make(map[int]*fd),
		next:      3,
	}
}

// NewRemote returns an FS whose data lives on server, accessed through
// the identical interface.
func NewRemote(net *simnet.Network, client, server simnet.NodeID) *FS {
	f := NewLocal(net, client)
	f.remote = server
	f.isRemote = true
	return f
}

// SetReachable toggles the remote server's availability.
func (f *FS) SetReachable(ok bool) { f.reachable = ok }

// hop charges the hidden network cost of a "local" call.
func (f *FS) hop(p *sim.Proc, size int) error {
	p.Sleep(SyscallCost)
	if !f.isRemote {
		return nil
	}
	if !f.reachable {
		// The interface has no way to say "the disk is a dead server";
		// all it can do is EIO after a timeout.
		p.Sleep(time.Second)
		return ErrEIO
	}
	f.net.Send(p, f.local, f.remote, 64)
	f.net.Send(p, f.remote, f.local, 64+size)
	return nil
}

// Creat makes a file.
func (f *FS) Creat(p *sim.Proc, name string) error {
	if err := f.hop(p, 0); err != nil {
		return err
	}
	if _, ok := f.files[name]; ok {
		return ErrExists
	}
	f.files[name] = nil
	return nil
}

// Open returns a file descriptor.
func (f *FS) Open(p *sim.Proc, name string) (int, error) {
	if err := f.hop(p, 0); err != nil {
		return -1, err
	}
	if _, ok := f.files[name]; !ok {
		return -1, ErrNoEnt
	}
	n := f.next
	f.next++
	f.fds[n] = &fd{name: name}
	return n, nil
}

// Write appends at the descriptor's offset.
func (f *FS) Write(p *sim.Proc, fdn int, data []byte) (int, error) {
	d, ok := f.fds[fdn]
	if !ok {
		return 0, ErrBadFD
	}
	if err := f.hop(p, len(data)); err != nil {
		return 0, err
	}
	buf := f.files[d.name]
	if gap := d.off - int64(len(buf)); gap > 0 {
		// One grow for the whole hole; a byte-at-a-time append is O(n²)
		// for sparse writes far past EOF.
		buf = append(buf, make([]byte, gap)...)
	}
	buf = append(buf[:d.off], data...)
	f.files[d.name] = buf
	d.off += int64(len(data))
	p.Sleep(f.st.Media().WriteCost(int64(len(data))))
	return len(data), nil
}

// Read fills buf from the descriptor's offset.
func (f *FS) Read(p *sim.Proc, fdn int, buf []byte) (int, error) {
	d, ok := f.fds[fdn]
	if !ok {
		return 0, ErrBadFD
	}
	if err := f.hop(p, len(buf)); err != nil {
		return 0, err
	}
	data := f.files[d.name]
	if d.off >= int64(len(data)) {
		return 0, nil
	}
	n := copy(buf, data[d.off:])
	d.off += int64(n)
	p.Sleep(f.st.Media().ReadCost(int64(n)))
	return n, nil
}

// Close releases the descriptor.
func (f *FS) Close(fdn int) error {
	if _, ok := f.fds[fdn]; !ok {
		return ErrBadFD
	}
	delete(f.fds, fdn)
	return nil
}

// Seek repositions the descriptor.
func (f *FS) Seek(fdn int, off int64) error {
	d, ok := f.fds[fdn]
	if !ok {
		return ErrBadFD
	}
	if off < 0 {
		return fmt.Errorf("posix: invalid offset %d", off)
	}
	d.off = off
	return nil
}
