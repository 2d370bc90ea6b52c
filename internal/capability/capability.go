// Package capability implements PCSI references (§3.2): unforgeable,
// rights-carrying handles that are the primary way to reach objects.
//
// References make the PCSI API stateful — the paper's explicit contrast
// with REST — and provide capability-oriented security in the style of
// Capsicum: a holder can attenuate (narrow) a reference's rights and pass
// it on, but can never amplify them; there is no ambient authority. An
// object's issuer can revoke all outstanding references by bumping the
// object's revocation epoch.
package capability

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/object"
)

// Rights is a bitmask of permitted operations.
type Rights uint32

// The individual rights.
const (
	Read    Rights = 1 << iota // read payload / lookup entries
	Write                      // overwrite payload
	Append                     // append to payload / add directory entries
	Exec                       // invoke as a function
	SetMut                     // move along the mutability lattice
	Grant                      // mint attenuated references for others
	Unlink                     // remove directory entries
	Destroy                    // delete the object
)

// All is every right.
const All = Read | Write | Append | Exec | SetMut | Grant | Unlink | Destroy

// ReadOnly is the common attenuation for sharing data.
const ReadOnly = Read

// Has reports whether r includes every right in need.
func (r Rights) Has(need Rights) bool { return r&need == need }

// String renders the rights set.
func (r Rights) String() string {
	if r == 0 {
		return "none"
	}
	names := []struct {
		bit  Rights
		name string
	}{
		{Read, "read"}, {Write, "write"}, {Append, "append"}, {Exec, "exec"},
		{SetMut, "setmut"}, {Grant, "grant"}, {Unlink, "unlink"}, {Destroy, "destroy"},
	}
	var out []string
	for _, n := range names {
		if r.Has(n.bit) {
			out = append(out, n.name)
		}
	}
	return strings.Join(out, "|")
}

// Errors returned by capability checks.
var (
	ErrDenied  = fault.Fatal("capability: required right not held")
	ErrRevoked = fault.Fatal("capability: reference revoked")
	ErrAmplify = fault.Fatal("capability: attenuation cannot add rights")
	ErrNoGrant = fault.Fatal("capability: grant right required")
	ErrUnknown = fault.Fatal("capability: unknown reference")
)

// RefID identifies a reference within a Space.
type RefID uint64

// Ref is a capability: an object ID plus a rights mask, bound to the
// issuing Space and the object's revocation epoch at mint time.
type Ref struct {
	id     RefID
	obj    object.ID
	rights Rights
	epoch  uint64
	space  *Space
}

// Object returns the referenced object's ID.
func (r Ref) Object() object.ID { return r.obj }

// Rights returns the reference's rights mask.
func (r Ref) Rights() Rights { return r.rights }

// Valid reports whether the reference was minted by a space (zero Refs are
// invalid).
func (r Ref) Valid() bool { return r.space != nil }

// String renders the reference.
func (r Ref) String() string {
	return fmt.Sprintf("ref(%v, %v)", r.obj, r.rights)
}

// Space tracks the references and revocation epochs of one trust domain
// (typically one PCSI deployment).
type Space struct {
	next   RefID
	epochs map[object.ID]uint64
	minted map[RefID]struct{}
	// Checks counts capability validations, for experiment E8.
	Checks int64
}

// NewSpace returns an empty capability space.
func NewSpace() *Space {
	return &Space{next: 1, epochs: make(map[object.ID]uint64), minted: make(map[RefID]struct{})}
}

// Mint issues a fresh reference to obj with the given rights. Only the
// system (object creator) calls Mint; user code obtains references from
// creation calls or by attenuation.
func (s *Space) Mint(obj object.ID, rights Rights) Ref {
	r := Ref{id: s.next, obj: obj, rights: rights, epoch: s.epochs[obj], space: s}
	s.minted[r.id] = struct{}{}
	s.next++
	return r
}

// Attenuate derives a new reference from r with rights narrowed to mask.
// The result's rights are r.rights & mask; requesting rights outside the
// parent's is an error (amplification).
func (s *Space) Attenuate(r Ref, mask Rights) (Ref, error) {
	if err := s.Check(r, 0); err != nil {
		return Ref{}, err
	}
	if mask&^r.rights != 0 {
		return Ref{}, fmt.Errorf("%w: have %v, requested %v", ErrAmplify, r.rights, mask)
	}
	return s.Mint(r.obj, r.rights&mask), nil
}

// Delegate mints a copy of r for another holder; requires the Grant right.
func (s *Space) Delegate(r Ref, mask Rights) (Ref, error) {
	if err := s.Check(r, Grant); err != nil {
		if errors.Is(err, ErrDenied) {
			return Ref{}, ErrNoGrant
		}
		return Ref{}, err
	}
	return s.Attenuate(r, mask)
}

// Check validates that r is live (minted here, not revoked) and carries
// every right in need.
func (s *Space) Check(r Ref, need Rights) error {
	s.Checks++
	if r.space != s {
		return ErrUnknown
	}
	if _, ok := s.minted[r.id]; !ok {
		return ErrUnknown
	}
	if r.epoch != s.epochs[r.obj] {
		return ErrRevoked
	}
	if !r.rights.Has(need) {
		return fmt.Errorf("%w: need %v, have %v", ErrDenied, need, r.rights)
	}
	return nil
}

// Revoke invalidates every outstanding reference to obj by advancing its
// epoch. New references minted afterwards are valid.
func (s *Space) Revoke(obj object.ID) {
	s.epochs[obj]++
}

// Drop forgets a single reference; subsequent checks on it fail.
func (s *Space) Drop(r Ref) {
	delete(s.minted, r.id)
}

// Registry retains the object of every live reference, and how many each
// object has, so the GC can compute reachability roots and an owner can
// tell when the last reference went. PCSI deployments wrap a Space in a
// Registry.
type Registry struct {
	*Space
	byRef map[RefID]object.ID
	live  map[object.ID]int // references recorded and not yet dropped; no zero entries
}

// NewRegistry returns a registry-backed capability space.
func NewRegistry() *Registry {
	return &Registry{Space: NewSpace(), byRef: make(map[RefID]object.ID), live: make(map[object.ID]int)}
}

// record notes a freshly minted reference.
func (g *Registry) record(r Ref) Ref {
	g.byRef[r.id] = r.obj
	g.live[r.obj]++
	return r
}

// Mint issues and records a reference.
func (g *Registry) Mint(obj object.ID, rights Rights) Ref {
	return g.record(g.Space.Mint(obj, rights))
}

// Attenuate derives and records a narrowed reference.
func (g *Registry) Attenuate(r Ref, mask Rights) (Ref, error) {
	nr, err := g.Space.Attenuate(r, mask)
	if err != nil {
		return Ref{}, err
	}
	return g.record(nr), nil
}

// Drop forgets a reference and its registry entry. Dropping a reference
// twice, or one the registry never recorded, counts nothing.
func (g *Registry) Drop(r Ref) {
	g.Space.Drop(r)
	obj, ok := g.byRef[r.id]
	if !ok {
		return
	}
	delete(g.byRef, r.id)
	if g.live[obj]--; g.live[obj] == 0 {
		delete(g.live, obj)
	}
}

// Live reports how many recorded references to obj have not been dropped.
// Revocation does not count: a revoked reference is live until dropped.
func (g *Registry) Live(obj object.ID) int { return g.live[obj] }

// Roots returns the set of objects with live references — the GC root
// contribution of held capabilities. Sorted for determinism.
func (g *Registry) Roots() []object.ID {
	out := make([]object.ID, 0, len(g.live))
	for obj := range g.live {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
