// Package store is a miniature stand-in for the real durable store.
package store

import (
	"errors"
	"fmt"

	"fixture/internal/fault"
	"fixture/internal/object"
)

// ErrMissing is classified by construction; ErrBusy is cleared by the
// classifier in faasfs that lists it (as consistency.ErrUnavailable is in
// the real tree). Neither is a finding, and neither is the %w chain or the
// fault.Fatalf in Take below.
var (
	ErrMissing = fault.Fatal("store: no such object")
	ErrBusy    = errors.New("store: busy")
)

// dupError is an error type nothing classifies. store is not a
// retry-boundary package, so the declaration is not errclass's business —
// but every literal of it is a mint site.
type dupError struct{ id int }

func (e *dupError) Error() string { return "store: duplicate id" }

// Store maps ids to objects.
type Store struct {
	objs map[int]*object.Object
}

// New returns an empty store.
func New() *Store { return &Store{objs: make(map[int]*object.Object)} }

// Insert adds o under id.
func (s *Store) Insert(id int, o *object.Object) { s.objs[id] = o }

// Get looks up id.
func (s *Store) Get(id int) *object.Object { return s.objs[id] }

// Take removes id, or says why not.
func (s *Store) Take(id int) (*object.Object, error) {
	o, ok := s.objs[id]
	switch {
	case id < 0:
		return nil, fault.Fatalf("store: bad id %d", id)
	case !ok:
		return nil, fmt.Errorf("store: take %d: %w", id, ErrMissing)
	case o.Len() == 0:
		return nil, &dupError{id: id} // want: errclass
	}
	delete(s.objs, id)
	return o, nil
}
