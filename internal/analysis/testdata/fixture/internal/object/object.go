// Package object is a miniature stand-in for the real object layer.
package object

import (
	"errors"
	"fmt"
)

// ErrFrozen is a state-layer sentinel nothing classifies. No package above
// it but faasfs calls fault.Policy.Do, and faasfs only reaches it through
// core and store: the import closure alone puts it in errclass's scope.
var ErrFrozen = errors.New("object: frozen") // want: errclass

// Object is a blob whose mutators the capdiscipline analyzer guards.
type Object struct {
	data []byte
}

// New returns an empty object.
func New() *Object { return &Object{} }

// SetData replaces the content.
func (o *Object) SetData(b []byte) { o.data = append(o.data[:0], b...) }

// ShareData installs b itself as the content, shared with its caller.
func (o *Object) ShareData(b []byte) { o.data = b[:len(b):len(b)] }

// Snapshot hands out the content uncopied.
func (o *Object) Snapshot() []byte { return o.data }

// Append adds b to the content.
func (o *Object) Append(b []byte) { o.data = append(o.data, b...) }

// Len reports the content size; reads are unrestricted.
func (o *Object) Len() int { return len(o.data) }

// Resize mints a %w-less Errorf two packages below core.
func (o *Object) Resize(n int) error {
	if n < 0 {
		return fmt.Errorf("object: negative size %d", n) // want: errclass
	}
	//pcsi:allow errclass fixture: an honoured suppression with a reason.
	return errors.New("object: resize unsupported")
}
