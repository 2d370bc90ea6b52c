package fncache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/consistency"
	"repro/internal/sim"
	"repro/internal/trace"
)

// qc returns a seeded quick config so every property run is reproducible.
func qc(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

func checkLaws(t *testing.T, name string, f interface{}, seed int64) {
	t.Helper()
	if err := quick.Check(f, qc(seed)); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// mergeEq reports whether two lattice values encode identically.
func mergeEq(a, b LWWReg) bool { return bytes.Equal(a.Encode(), b.Encode()) }

func TestLatticeLawsLWW(t *testing.T) {
	checkLaws(t, "commutative", func(a, b LWWReg) bool {
		return mergeEq(a.Merge(b), b.Merge(a))
	}, 1)
	checkLaws(t, "associative", func(a, b, c LWWReg) bool {
		return mergeEq(a.Merge(b).Merge(c), a.Merge(b.Merge(c)))
	}, 2)
	checkLaws(t, "idempotent", func(a LWWReg) bool {
		return mergeEq(a.Merge(a), a)
	}, 3)
	checkLaws(t, "monotone", func(a, b LWWReg) bool {
		j := a.Merge(b)
		return a.Leq(j) && b.Leq(j)
	}, 4)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	checkLaws(t, "lww", func(a LWWReg) bool {
		v, err := Decode(a.Encode())
		return err == nil && mergeEq(v, a)
	}, 20)
}

func TestMergePayload(t *testing.T) {
	checkLaws(t, "registers", func(a, b LWWReg) bool {
		m, ok := MergePayload(a.Encode(), b.Encode())
		if !ok {
			return false
		}
		le, err := PayloadLeq(a.Encode(), m)
		if err != nil || !le {
			return false
		}
		return bytes.Equal(m, a.Merge(b).Encode())
	}, 24)
	checkLaws(t, "non-lattice-refused", func(a LWWReg, b []byte) bool {
		_, ok := MergePayload(a.Encode(), append([]byte{0x01}, b...))
		return !ok
	}, 25)
	if Mergeable([]byte("plain bytes")) {
		t.Error("Mergeable accepted a non-lattice payload")
	}
	if _, ok := MergePayload([]byte{0x01, 0x02}, []byte{0x01, 0x03}); ok {
		t.Error("MergePayload merged non-lattice payloads")
	}
}

// FuzzLatticePayload feeds arbitrary bytes to the lattice decoder, which
// reads replica payloads during anti-entropy: Decode never panics, a value
// that decodes re-encodes to an equal value, and a merge that succeeds is
// commutative, idempotent and an upper bound of both inputs.
func FuzzLatticePayload(f *testing.F) {
	f.Add(LWWReg{T: 1, Actor: 2, Val: []byte("v")}.Encode(), LWWReg{T: 1, Actor: 3}.Encode())
	f.Add([]byte{tagLWW, 0, 0}, []byte("plain bytes"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		same := func(x, y LWWReg) bool { return x.Leq(y) && y.Leq(x) }
		for _, p := range [][]byte{a, b} {
			v, err := Decode(p)
			if err != nil {
				continue
			}
			if w, err := Decode(v.Encode()); err != nil || !same(v, w) {
				t.Fatalf("%x decodes to %v, which re-encodes to %v (%v)", p, v, w, err)
			}
		}
		ab, ok := MergePayload(a, b)
		if !ok {
			return
		}
		ba, ok := MergePayload(b, a)
		if !ok || !bytes.Equal(ab, ba) {
			t.Fatalf("merge not commutative: %x vs %x (ok=%v)", ab, ba, ok)
		}
		aa, ok := MergePayload(a, a)
		av, _ := Decode(a)
		if v, err := Decode(aa); !ok || err != nil || !same(v, av) {
			t.Fatalf("merge not idempotent: %x merged with itself is %x", a, aa)
		}
		for _, p := range [][]byte{a, b} {
			if le, err := PayloadLeq(p, ab); err != nil || !le {
				t.Fatalf("%x is not below the merge %x (%v)", p, ab, err)
			}
		}
	})
}

// TestLeaseEpochMonotonicity drives random op sequences against the lease
// directory next to a trivial model store (a counter bumped by each write)
// and checks the coherence contract: epochs never go backwards, and a hit
// always returns the model's current value — i.e. no entry survives a
// write that invalidated it, no fill lands during a write, and a fill
// against a moved epoch is refused.
func TestLeaseEpochMonotonicity(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(nil, Config{}, trace.NewRegistry())
		store := map[Key]byte{}
		lastEpoch := map[Key]uint64{}
		now := sim.Time(0)
		for _, op := range ops {
			key := Key(op>>2) % 3
			node := int(op>>4) % 4
			switch op % 4 {
			case 0, 1: // read at node
				if data, _, ok := c.LeaseGet(node, key, now); ok {
					if len(data) != 1 || data[0] != store[key] {
						return false // stale hit: cache outlived a write
					}
				} else {
					e := c.Epoch(key)
					c.LeaseFill(node, key, []byte{store[key]}, stampOf(uint64(store[key])), e, now)
				}
			case 2: // write
				holders := c.BeginWrite(key)
				for i := 1; i < len(holders); i++ {
					if holders[i-1] >= holders[i] {
						return false // fan-out set must be sorted, unique
					}
				}
				store[key]++
				c.EndWrite(key)
			case 3: // racy fill: recorded epoch, then a write slips in
				e := c.Epoch(key)
				c.BeginWrite(key)
				store[key]++
				c.EndWrite(key)
				c.LeaseFill(node, key, []byte{store[key] - 1}, stampOf(uint64(store[key]-1)), e, now)
			}
			if ep := c.Epoch(key); ep < lastEpoch[key] {
				return false // epoch regressed
			} else {
				lastEpoch[key] = ep
			}
		}
		return true
	}
	if err := quick.Check(f, qc(26)); err != nil {
		t.Error(err)
	}
}

func stampOf(n uint64) consistency.Stamp { return consistency.Stamp{Counter: n} }

func TestLeaseTTLExpiry(t *testing.T) {
	c := New(nil, Config{LeaseTTL: 10}, trace.NewRegistry())
	c.LeaseFill(1, 7, []byte{42}, stampOf(1), c.Epoch(7), sim.Time(0))
	if _, _, ok := c.LeaseGet(1, 7, sim.Time(5)); !ok {
		t.Fatal("entry should be live before TTL")
	}
	if _, _, ok := c.LeaseGet(1, 7, sim.Time(11)); ok {
		t.Fatal("entry served past its lease TTL")
	}
	if _, _, ok := c.LeaseGet(1, 7, sim.Time(5)); ok {
		t.Fatal("expired entry should have been dropped")
	}
}

func TestLeaseEviction(t *testing.T) {
	c := New(nil, Config{MaxEntriesPerNode: 2}, trace.NewRegistry())
	now := sim.Time(0)
	for _, k := range []Key{5, 3, 9} {
		c.LeaseFill(0, k, []byte{byte(k)}, stampOf(uint64(k)), c.Epoch(k), now)
	}
	if _, _, ok := c.LeaseGet(0, 3, now); ok {
		t.Fatal("smallest key should have been evicted")
	}
	for _, k := range []Key{5, 9} {
		if _, _, ok := c.LeaseGet(0, k, now); !ok {
			t.Fatalf("key %d should have survived eviction", k)
		}
	}
}

func TestDropNodeAndInvalidate(t *testing.T) {
	c := New(nil, Config{}, trace.NewRegistry())
	now := sim.Time(0)
	c.LeaseFill(0, 1, []byte{1}, stampOf(1), c.Epoch(1), now)
	c.LeaseFill(1, 1, []byte{1}, stampOf(1), c.Epoch(1), now)
	c.LatticeMergeLocal(0, 2, LWWReg{T: 1, Val: []byte{1}})
	c.DropNode(0)
	if _, _, ok := c.LeaseGet(0, 1, now); ok {
		t.Fatal("dropped node still serves lease entries")
	}
	if _, ok := c.LatticeGet(0, 2); ok {
		t.Fatal("dropped node still holds lattice replicas")
	}
	if _, _, ok := c.LeaseGet(1, 1, now); !ok {
		t.Fatal("surviving node lost its entry")
	}
	before := c.Epoch(1)
	if n := c.Invalidate(1); n != 1 {
		t.Fatalf("Invalidate dropped %d entries, want 1", n)
	}
	if c.Epoch(1) <= before {
		t.Fatal("Invalidate must advance the epoch")
	}
	if _, _, ok := c.LeaseGet(1, 1, now); ok {
		t.Fatal("invalidated entry still served")
	}
}
