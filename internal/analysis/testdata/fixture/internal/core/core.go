// Package core is a miniature stand-in for the capability-checked core.
// It is a retry-boundary package inside the import closure of faasfs's
// fault.Policy.Do call, and the errors below are listed only by a
// classifier function, which classifies nothing: errclass flags both.
package core

import (
	"errors"

	"fixture/internal/object"
	"fixture/internal/obs"
	"fixture/internal/store"
)

// ErrDenied is flagged twice despite the errors.Is mention in Classify:
// as an unclassified declaration and as an errors.New mint site.
var ErrDenied = errors.New("core: rights check failed") // want: errclass errclass

// RefError is flagged despite the errors.As target in Classify.
type RefError struct{ ID int } // want: errclass

func (e *RefError) Error() string { return "core: bad ref" }

// Classify is a classifier (func(error) bool) listing the errors above; a
// listing is not a classification.
func Classify(err error) bool {
	var re *RefError
	if errors.As(err, &re) {
		return false
	}
	return errors.Is(err, ErrDenied)
}

// Client mediates every mutation behind a (stub) rights check. The
// telemetry plane import is legal here: core is a sanctioned obs client,
// so the layering analyzer must stay silent on it.
type Client struct {
	st    *store.Store
	plane obs.Plane
}

// NewClient returns a client over st.
func NewClient(st *store.Store) *Client { return &Client{st: st} }

// Put writes data under id after the rights check.
func (c *Client) Put(id int, data []byte) {
	o := object.New()
	o.SetData(data)
	c.st.Insert(id, o)
}
