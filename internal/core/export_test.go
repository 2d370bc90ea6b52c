package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"unsafe"

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

// payloadArray returns the backing array of o's payload. It reads the
// object's unexported field directly, so the oracle below depends on nothing
// the object package offers for sharing (Read, share, Clone).
func payloadArray(o *object.Object) *byte {
	f := reflect.ValueOf(o).Elem().FieldByName("data")
	return arrayOf(*(*[]byte)(unsafe.Pointer(f.UnsafeAddr())))
}

// sharedBelowImmutable is the one-holder oracle of DESIGN §5 ("a payload
// array may have more than one holder only while its object is IMMUTABLE").
// It lists every backing array that two or more holders — replica objects,
// ephemeral objects and node-cache entries — hold while one of them belongs
// to an object below IMMUTABLE. Empty means the rule holds.
func (c *Cloud) sharedBelowImmutable() []string {
	held := make(map[*byte][]string) // array -> its holders
	below := make(map[*byte]bool)    // array -> some holder is below IMMUTABLE
	add := func(arr *byte, name string, mut object.Mutability) {
		if arr != nil {
			held[arr] = append(held[arr], fmt.Sprintf("%s at %v", name, mut))
			below[arr] = below[arr] || mut != object.Immutable
		}
	}
	for _, r := range c.grp.Replicas() {
		reads := r.St.Reads
		for _, id := range r.St.IDs() {
			o, _ := r.St.Get(id)
			add(payloadArray(o), fmt.Sprintf("replica %d %v", r.Index, id), o.Mutability())
		}
		r.St.Reads = reads // an audit is not a read
	}
	for id, e := range c.ephem {
		add(payloadArray(e.obj), fmt.Sprintf("ephemeral %v", id), e.obj.Mutability())
	}
	for k, e := range c.caches {
		// Only a stable entry holds bytes, a view taken at IMMUTABLE, which
		// is terminal.
		add(arrayOf(e.data), fmt.Sprintf("node %d cache of %v", k.node, k.id), object.Immutable)
	}
	var out []string
	for arr, hs := range held {
		if len(hs) > 1 && below[arr] {
			sort.Strings(hs)
			out = append(out, strings.Join(hs, ", "))
		}
	}
	sort.Strings(out)
	return out
}
