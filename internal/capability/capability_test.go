package capability

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/object"
)

func TestMintAndCheck(t *testing.T) {
	s := NewSpace()
	r := s.Mint(object.ID(1), Read|Write)
	if err := s.Check(r, Read); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(r, Read|Write); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(r, Exec); !errors.Is(err, ErrDenied) {
		t.Errorf("Check(Exec) = %v, want ErrDenied", err)
	}
}

func TestZeroRefInvalid(t *testing.T) {
	s := NewSpace()
	var zero Ref
	if zero.Valid() {
		t.Error("zero Ref reports valid")
	}
	if err := s.Check(zero, Read); !errors.Is(err, ErrUnknown) {
		t.Errorf("Check(zero) = %v, want ErrUnknown", err)
	}
}

func TestForeignSpaceRefRejected(t *testing.T) {
	a, b := NewSpace(), NewSpace()
	r := a.Mint(object.ID(1), All)
	if err := b.Check(r, Read); !errors.Is(err, ErrUnknown) {
		t.Errorf("foreign ref check = %v, want ErrUnknown", err)
	}
}

func TestAttenuateNarrows(t *testing.T) {
	s := NewSpace()
	r := s.Mint(object.ID(1), Read|Write|Grant)
	ro, err := s.Attenuate(r, Read)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Rights() != Read {
		t.Errorf("rights = %v, want read", ro.Rights())
	}
	if err := s.Check(ro, Write); !errors.Is(err, ErrDenied) {
		t.Errorf("attenuated ref allows write: %v", err)
	}
	// The parent is unaffected.
	if err := s.Check(r, Write); err != nil {
		t.Errorf("parent lost rights: %v", err)
	}
}

func TestAttenuateCannotAmplify(t *testing.T) {
	s := NewSpace()
	r := s.Mint(object.ID(1), Read)
	if _, err := s.Attenuate(r, Read|Write); !errors.Is(err, ErrAmplify) {
		t.Errorf("amplification err = %v, want ErrAmplify", err)
	}
}

// Property: any chain of attenuations yields rights that are a subset of
// the original — monotonic narrowing, the core capability invariant.
func TestAttenuationMonotoneProperty(t *testing.T) {
	f := func(initial uint32, masks []uint32) bool {
		s := NewSpace()
		r := s.Mint(object.ID(1), Rights(initial)&All)
		orig := r.Rights()
		for _, m := range masks {
			nr, err := s.Attenuate(r, Rights(m)&r.Rights())
			if err != nil {
				return false
			}
			r = nr
			if r.Rights()&^orig != 0 {
				return false // gained a right not originally held
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDelegateRequiresGrant(t *testing.T) {
	s := NewSpace()
	nog := s.Mint(object.ID(1), Read|Write)
	if _, err := s.Delegate(nog, Read); !errors.Is(err, ErrNoGrant) {
		t.Errorf("delegate without grant = %v, want ErrNoGrant", err)
	}
	g := s.Mint(object.ID(1), Read|Grant)
	d, err := s.Delegate(g, Read)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(d, Read); err != nil {
		t.Errorf("delegated ref invalid: %v", err)
	}
}

func TestDropForgetsSingleRef(t *testing.T) {
	s := NewSpace()
	r := s.Mint(object.ID(1), Read)
	keep := s.Mint(object.ID(1), Read)
	s.Drop(r)
	if err := s.Check(r, Read); !errors.Is(err, ErrUnknown) {
		t.Errorf("dropped ref check = %v, want ErrUnknown", err)
	}
	if err := s.Check(keep, Read); err != nil {
		t.Errorf("sibling ref affected by drop: %v", err)
	}
}

func TestChecksCounter(t *testing.T) {
	s := NewSpace()
	r := s.Mint(object.ID(1), Read)
	before := s.Checks
	for i := 0; i < 5; i++ {
		if err := s.Check(r, Read); err != nil {
			t.Fatal(err)
		}
	}
	if s.Checks != before+5 {
		t.Errorf("Checks = %d, want %d", s.Checks, before+5)
	}
}

func TestRightsString(t *testing.T) {
	if Rights(0).String() != "none" {
		t.Errorf("Rights(0) = %q", Rights(0).String())
	}
	got := (Read | Write).String()
	if got != "read|write" {
		t.Errorf("read|write = %q", got)
	}
}

func TestRegistryRoots(t *testing.T) {
	g := NewRegistry()
	a := g.Mint(object.ID(1), All)
	g.Mint(object.ID(2), Read)
	b, err := g.Attenuate(a, Read)
	if err != nil {
		t.Fatal(err)
	}
	roots := g.Roots()
	if len(roots) != 2 || roots[0] != 1 || roots[1] != 2 {
		t.Fatalf("Roots = %v, want [1 2]", roots)
	}
	g.Drop(a)
	g.Drop(b)
	roots = g.Roots()
	if len(roots) != 1 || roots[0] != 2 {
		t.Fatalf("Roots after drops = %v, want [2]", roots)
	}
}

func TestRegistryRootsDeterministic(t *testing.T) {
	g := NewRegistry()
	for i := 10; i > 0; i-- {
		g.Mint(object.ID(i), Read)
	}
	r1 := g.Roots()
	r2 := g.Roots()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("Roots not deterministic")
		}
		if i > 0 && r1[i-1] >= r1[i] {
			t.Fatal("Roots not sorted")
		}
	}
}

// TestRegistryLiveCounts drives mint/attenuate/drop scripts and, after
// every step, compares Live and Roots with a brute-force count over the
// references the script still holds.
func TestRegistryLiveCounts(t *testing.T) {
	type step struct {
		op  byte // m: mint obj n; a: attenuate ref n; d: drop ref n; z: drop the zero Ref
		n   int
		err error // a only
	}
	type script struct {
		name  string
		steps []step
	}
	scripts := []script{
		{"mint then drop", []step{{op: 'm', n: 1}, {op: 'd', n: 0}}},
		{"double drop counts once", []step{{op: 'm', n: 1}, {op: 'm', n: 1}, {op: 'd', n: 0}, {op: 'd', n: 0}, {op: 'd', n: 1}}},
		{"attenuated outlives parent", []step{{op: 'm', n: 7}, {op: 'a', n: 0}, {op: 'd', n: 0}, {op: 'a', n: 1}, {op: 'd', n: 1}, {op: 'd', n: 2}}},
		{"attenuate dropped ref", []step{{op: 'm', n: 3}, {op: 'd', n: 0}, {op: 'a', n: 0, err: ErrUnknown}}},
		{"zero ref", []step{{op: 'z'}, {op: 'm', n: 2}, {op: 'z'}, {op: 'd', n: 0}, {op: 'z'}}},
		{"interleaved objects", []step{{op: 'm', n: 9}, {op: 'm', n: 5}, {op: 'a', n: 1}, {op: 'm', n: 9}, {op: 'd', n: 1}, {op: 'd', n: 0}, {op: 'd', n: 3}, {op: 'd', n: 2}}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		var s []step
		refs := 0
		for j := 0; j < 60; j++ {
			switch k := rng.Intn(10); {
			case refs == 0 || k < 3:
				s = append(s, step{op: 'm', n: 1 + rng.Intn(4)})
				refs++
			case k < 5:
				s = append(s, step{op: 'a', n: rng.Intn(refs), err: errSkip})
				refs++
			default:
				s = append(s, step{op: 'd', n: rng.Intn(refs)})
			}
		}
		scripts = append(scripts, script{"random-" + string(rune('a'+i)), s})
	}
	for _, sc := range scripts {
		name := sc.name
		g := NewRegistry()
		var refs []Ref      // every reference the script obtained, by index
		held := []bool(nil) // whether refs[i] is still undropped
		for i, st := range sc.steps {
			switch st.op {
			case 'm':
				refs, held = append(refs, g.Mint(object.ID(st.n), All)), append(held, true)
			case 'a':
				r, err := g.Attenuate(refs[st.n], Read)
				if st.err != errSkip && !errors.Is(err, st.err) {
					t.Fatalf("%s step %d: Attenuate err = %v, want %v", name, i, err, st.err)
				}
				// A failed attenuation yields the zero Ref: a placeholder that
				// keeps later indices stable and is never live.
				refs, held = append(refs, r), append(held, err == nil)
			case 'd':
				g.Drop(refs[st.n])
				held[st.n] = false
			case 'z':
				g.Drop(Ref{})
			}
			want := map[object.ID]int{}
			for j, r := range refs {
				if held[j] {
					want[r.Object()]++
				}
			}
			var roots []object.ID
			for obj := object.ID(0); obj < 12; obj++ {
				if g.Live(obj) != want[obj] {
					t.Fatalf("%s step %d: Live(%v) = %d, brute force %d", name, i, obj, g.Live(obj), want[obj])
				}
				if want[obj] > 0 {
					roots = append(roots, obj)
				}
			}
			if got := g.Roots(); !slices.Equal(got, roots) {
				t.Fatalf("%s step %d: Roots = %v, want %v", name, i, got, roots)
			}
		}
	}
}

// errSkip marks a generated attenuation whose outcome the script does not
// predict (its parent may already be dropped).
var errSkip = errors.New("unpredicted")
