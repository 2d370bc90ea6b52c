package maporder

import "sort"

// EarlyUnsorted hands the keys on unsorted when c holds.
func EarlyUnsorted(m map[string]int, c bool) []string {
	out := []string{}
	for k := range m {
		out = append(out, k) // want: maprange
	}
	if c {
		return out
	}
	sort.Strings(out)
	return out
}

// Values walks the keys after sorting them, so the values it collects are
// in key order: no diagnostic.
func Values(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var vals []int
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return vals
}
