// Package leaf is the bottom of the taint-chain fixture: the only
// package that touches ambient state directly.
package leaf

import (
	"sort"
	"time"
)

// Stamp reads the wall clock: the taint root.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Allowed reads the clock too, but the justified allow at the source
// keeps it from seeding taint in its callers.
func Allowed() int64 {
	return time.Now().UnixNano() //repllint:allow determinism — fixture: reviewed at source
}

// Collect returns map keys in iteration order: a map-order-dependent
// result, the non-call taint seed.
func Collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Sorted is the compliant twin: collect, then sort.
func Sorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
