package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/fncache"
	"repro/internal/object"
)

// arrayOf returns the backing array b holds, or nil when it holds none (every
// zero-capacity allocation may share one address).
func arrayOf(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return unsafe.SliceData(b)
}

// payload returns o's payload and its shared mark. It reads the object's
// unexported fields directly, so the oracle below depends on nothing the
// object package offers for sharing (Read, Snapshot, Clone).
func payload(o *object.Object) (data []byte, shared int) {
	v := reflect.ValueOf(o).Elem()
	f := v.FieldByName("data")
	return *(*[]byte)(unsafe.Pointer(f.UnsafeAddr())), int(v.FieldByName("shared").Int())
}

// leases calls fn with every lease entry of fc (nil: none), read from the
// cache's unexported fields as payload reads an object's.
func leases(fc *fncache.Cache, fn func(node, key int64, data []byte)) {
	if fc == nil {
		return
	}
	nodes := reflect.ValueOf(fc).Elem().FieldByName("lease").MapRange()
	for nodes.Next() {
		entries := nodes.Value().MapRange()
		for entries.Next() {
			f := entries.Value().Elem().FieldByName("data")
			fn(nodes.Key().Int(), int64(entries.Key().Uint()), *(*[]byte)(unsafe.Pointer(f.UnsafeAddr())))
		}
	}
}

// seenShared remembers, from one sharedPastMark audit to the next, the bytes
// of each array that two or more of its holders saw. No holder may write
// those bytes in place, so they must read the same at the next audit.
type seenShared map[*byte][]byte

// sharedPastMark is the shared-prefix oracle of DESIGN §5 ("a holder below
// IMMUTABLE writes its array in place only past its shared mark, and the
// mark covers every byte another holder of that array sees"), over every
// holder of a payload array: replica objects, ephemeral objects and
// node-cache entries. It reports each array some holder below IMMUTABLE
// could write in place although another holder sees those bytes (its mark
// is less than that holder's length), and each array whose bytes two
// holders saw at the previous audit (seen) have changed since; then it
// records what two holders see now in seen. Empty means the rule holds.
func (c *Cloud) sharedPastMark(seen seenShared) []string {
	type holder struct {
		name      string
		n, shared int
		mayWrite  bool // below IMMUTABLE
	}
	held := make(map[*byte][]holder) // array -> its holders
	add := func(data []byte, shared int, name string, mut object.Mutability) {
		if arr := arrayOf(data); arr != nil {
			held[arr] = append(held[arr], holder{fmt.Sprintf("%s at %v (len %d, shared %d)", name, mut, len(data), shared),
				len(data), shared, mut != object.Immutable})
		}
	}
	for _, r := range c.grp.Replicas() {
		reads := r.St.Reads
		for _, id := range r.St.IDs() {
			o, _ := r.St.Get(id)
			data, shared := payload(o)
			add(data, shared, fmt.Sprintf("replica %d %v", r.Index, id), o.Mutability())
		}
		r.St.Reads = reads // an audit is not a read
	}
	for id, e := range c.ephem {
		data, shared := payload(e.obj)
		add(data, shared, fmt.Sprintf("ephemeral %v", id), e.obj.Mutability())
	}
	for k, e := range c.caches {
		// Only a stable entry holds bytes, a view taken at IMMUTABLE, which
		// is terminal.
		add(e.data, 0, fmt.Sprintf("node %d cache of %v", k.node, k.id), object.Immutable)
	}
	leases(c.fncache, func(node, key int64, data []byte) {
		// A lease entry holds a Snapshot and never writes it.
		add(data, 0, fmt.Sprintf("node %d lease of obj-%d", node, key), object.Immutable)
	})
	var out []string
	for arr, want := range seen {
		got := unsafe.Slice(arr, len(want))
		for i := range want {
			if got[i] != want[i] {
				out = append(out, fmt.Sprintf("byte %d of %d that two holders saw changed in place", i, len(want)))
				break
			}
		}
	}
	clear(seen)
	for arr, hs := range held {
		names := make([]string, len(hs))
		lens := make([]int, len(hs))
		bad := false
		for i, w := range hs {
			names[i], lens[i] = w.name, w.n
			for j, r := range hs {
				bad = bad || (i != j && w.mayWrite && w.shared < r.n)
			}
		}
		if bad {
			sort.Strings(names)
			out = append(out, strings.Join(names, ", "))
		}
		if sort.Ints(lens); len(lens) > 1 && lens[len(lens)-2] > 0 {
			seen[arr] = slices.Clone(unsafe.Slice(arr, lens[len(lens)-2]))
		}
	}
	sort.Strings(out)
	return out
}
