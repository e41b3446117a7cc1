// Package leaf is the bottom of the taint-chain fixture: the only
// package that touches ambient state directly.
package leaf

import "time"

// Stamp reads the wall clock: the taint root.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Collect returns map keys in iteration order: a map-order-dependent
// result.
func Collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
