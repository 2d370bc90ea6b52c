// Package gc implements PCSI's automated resource reclamation (§3.2):
// "object reachability [is] explicit. An object is only accessible by
// functions that hold a reference to it or to a namespace containing it
// ... Another benefit is automated resource reclamation for unreachable
// objects."
//
// The collector is a mark-and-sweep over one store: roots are (a) every
// object with a live capability reference and (b) the root directories of
// registered namespaces; directories keep their children alive.
package gc

import (
	"repro/internal/object"
	"repro/internal/store"
)

// RootSource contributes root object IDs to a collection.
type RootSource interface {
	// Roots returns object IDs that must be considered live.
	Roots() []object.ID
}

// RootsFunc adapts a function to a RootSource.
type RootsFunc func() []object.ID

// Roots calls f.
func (f RootsFunc) Roots() []object.ID { return f() }

// Collector garbage-collects one store.
type Collector struct {
	st      *store.Store
	sources []RootSource

	// Stats from the most recent collection.
	LastSwept     int
	LastSweptIDs  []object.ID
	LastReclaimed int64 // bytes
	Collections   int
}

// New returns a collector for st.
func New(st *store.Store) *Collector {
	return &Collector{st: st}
}

// AddRoots registers a root source (capability registry, namespace table).
func (c *Collector) AddRoots(src RootSource) { c.sources = append(c.sources, src) }

// Collect runs a full mark-and-sweep and returns the number of objects
// reclaimed.
func (c *Collector) Collect() int {
	marked := make(map[object.ID]bool)
	var stack []object.ID
	push := func(id object.ID) {
		if id != object.NilID && !marked[id] && c.st.Contains(id) {
			marked[id] = true
			stack = append(stack, id)
		}
	}
	for _, src := range c.sources {
		for _, id := range src.Roots() {
			push(id)
		}
	}
	// Trace: directories reach their entries; other kinds are leaves.
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o, err := c.st.Get(id)
		if err != nil {
			continue
		}
		if o.Kind() == object.Directory {
			for _, child := range o.ChildIDs() {
				push(child)
			}
		}
	}
	// Sweep.
	swept := 0
	var reclaimed int64
	c.LastSweptIDs = c.LastSweptIDs[:0]
	for _, id := range c.st.IDs() {
		if marked[id] {
			continue
		}
		if o, err := c.st.Get(id); err == nil {
			reclaimed += o.Size()
		}
		if err := c.st.Delete(id); err == nil {
			swept++
			c.LastSweptIDs = append(c.LastSweptIDs, id)
		}
	}
	c.LastSwept = swept
	c.LastReclaimed = reclaimed
	c.Collections++
	return swept
}
