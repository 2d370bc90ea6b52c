// Package store implements the node-local object store that backs PCSI
// state replicas: an ID-allocating in-memory extent store with simulated
// media access costs (internal/media).
//
// A Store represents one storage server's worth of objects. Replication and
// consistency live a layer up (internal/consistency); this layer only
// holds the objects and counts accesses to them.
package store

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
)

// ErrNotFound is returned for an ID the store does not hold.
var ErrNotFound = fault.Fatal("store: object not found")

// Store is a single node's object store.
type Store struct {
	media   media.Profile
	objects map[object.ID]*object.Object
	nextID  object.ID
	// Reads/Writes count operations for experiment accounting.
	Reads  int64
	Writes int64
}

// New returns an empty store on the given medium.
func New(m media.Profile) *Store {
	return &Store{media: m, objects: make(map[object.ID]*object.Object), nextID: 1}
}

// Media returns the store's medium profile.
func (s *Store) Media() media.Profile { return s.media }

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

// CountWrite records a mutation of an object the caller got from Get.
func (s *Store) CountWrite() { s.Writes++ }

// SetData replaces an object's payload with a copy of data.
func (s *Store) SetData(id object.ID, data []byte) error {
	o, err := s.Get(id)
	if err != nil {
		return err
	}
	if err := o.SetData(data); err != nil {
		return err
	}
	s.Writes++
	return nil
}

// Delete removes an object. Used by the GC.
func (s *Store) Delete(id object.ID) error {
	if _, ok := s.objects[id]; !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
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
