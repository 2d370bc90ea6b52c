// Package mutation violates capability discipline: raw object and store
// mutation outside the sanctioned layers.
package mutation

import (
	"fixture/internal/object"
	"fixture/internal/store" // want: layering
)

// Scribble mutates objects and the store without a rights check.
func Scribble(st *store.Store) {
	o := object.New()
	o.SetData([]byte("x"))   // want: capdiscipline
	o.Append([]byte("y"))    // want: capdiscipline
	o.ShareData([]byte("s")) // want: capdiscipline
	_ = o.Snapshot()         // want: capdiscipline
	st.Insert(1, o)          // want: capdiscipline
	_ = o.Len()
}

// impostor has a method named like a mutator on an unrelated type.
type impostor struct{}

// SetData on impostor is not object.Object.SetData.
func (impostor) SetData(b []byte) {}

// Decoy calls the impostor; the analyzer must not flag it.
func Decoy() { impostor{}.SetData(nil) }
