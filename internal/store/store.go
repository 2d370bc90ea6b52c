// Package store implements the node-local object store that backs PCSI
// state replicas: an ID-allocating in-memory extent store with quota
// accounting and simulated media access costs (internal/media).
//
// A Store represents one storage server's worth of objects. Replication and
// consistency live a layer up (internal/consistency); this layer only
// guarantees local atomicity and tracks space.
package store

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
)

// Errors returned by the store.
var (
	ErrNotFound = fault.Fatal("store: object not found")
	ErrQuota    = fault.Fatal("store: quota exceeded")
)

// Store is a single node's object store.
type Store struct {
	media   media.Profile
	objects map[object.ID]*object.Object
	nextID  object.ID
	quota   int64 // bytes; 0 = unlimited
	used    int64
	// Reads/Writes count operations for experiment accounting.
	Reads  int64
	Writes int64
}

// New returns an empty store on the given medium with a byte quota
// (0 = unlimited).
func New(m media.Profile, quota int64) *Store {
	return &Store{media: m, objects: make(map[object.ID]*object.Object), nextID: 1, quota: quota}
}

// Media returns the store's medium profile.
func (s *Store) Media() media.Profile { return s.media }

// Used returns bytes of payload currently stored.
func (s *Store) Used() int64 { return s.used }

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objects) }

// Create allocates a fresh object of the given kind.
func (s *Store) Create(kind object.Kind) *object.Object {
	o := object.New(s.nextID, kind)
	s.objects[o.ID()] = o
	s.nextID++
	return o
}

// Insert adopts an externally built object (replica transfer, copy-up).
// The object's ID must not collide with an existing one.
func (s *Store) Insert(o *object.Object) error {
	if _, ok := s.objects[o.ID()]; ok {
		return fault.Fatalf("store: duplicate id %v", o.ID())
	}
	s.objects[o.ID()] = o
	s.used += o.Size()
	if o.ID() >= s.nextID {
		s.nextID = o.ID() + 1
	}
	return nil
}

// AllocID reserves an object ID without creating the object; used when a
// replicated group must agree on IDs before replicas materialise them.
func (s *Store) AllocID() object.ID {
	id := s.nextID
	s.nextID++
	return id
}

// Get returns the object with the given ID.
func (s *Store) Get(id object.ID) (*object.Object, error) {
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	s.Reads++
	return o, nil
}

// Contains reports whether the store holds id, without counting a read.
func (s *Store) Contains(id object.ID) bool {
	_, ok := s.objects[id]
	return ok
}

// UpdateAccounting must be called around mutations so quota tracking stays
// correct: pass the object's size delta.
func (s *Store) UpdateAccounting(delta int64) error {
	if s.quota > 0 && s.used+delta > s.quota {
		return fmt.Errorf("%w: used %d + %d > %d", ErrQuota, s.used, delta, s.quota)
	}
	s.used += delta
	s.Writes++
	return nil
}

// SetData replaces an object's payload through the store so quota is
// enforced atomically: on quota failure the object is unchanged.
func (s *Store) SetData(id object.ID, data []byte) error {
	o, err := s.Get(id)
	if err != nil {
		return err
	}
	delta := int64(len(data)) - o.Size()
	if s.quota > 0 && s.used+delta > s.quota {
		return fmt.Errorf("%w: used %d + %d > %d", ErrQuota, s.used, delta, s.quota)
	}
	if err := o.SetData(data); err != nil {
		return err
	}
	s.used += delta
	s.Writes++
	return nil
}

// Append appends through the store with quota enforcement.
func (s *Store) Append(id object.ID, data []byte) error {
	o, err := s.Get(id)
	if err != nil {
		return err
	}
	if s.quota > 0 && s.used+int64(len(data)) > s.quota {
		return fmt.Errorf("%w: used %d + %d > %d", ErrQuota, s.used, int64(len(data)), s.quota)
	}
	if err := o.Append(data); err != nil {
		return err
	}
	s.used += int64(len(data))
	s.Writes++
	return nil
}

// Delete removes an object, reclaiming its space. Used by the GC.
func (s *Store) Delete(id object.ID) error {
	o, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	s.used -= o.Size()
	delete(s.objects, id)
	return nil
}

// IDs returns all object IDs in ascending order (deterministic iteration
// for GC and anti-entropy).
func (s *Store) IDs() []object.ID {
	ids := make([]object.ID, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
