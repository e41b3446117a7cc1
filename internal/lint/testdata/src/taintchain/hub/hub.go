// Package hub is the intermediate helper of the taint-chain fixture:
// impurity flows through it without any direct ambient access, which is
// exactly what a rule that only looks at direct calls cannot see.
package hub

import "taintchain/leaf"

// Mix is impure by transitivity: it calls leaf.Stamp.
func Mix() int64 {
	return leaf.Stamp() + 1
}

// Gather is impure through the map-order seed in leaf.Collect.
func Gather(m map[string]int) []string {
	return leaf.Collect(m)
}

// Quiet calls the clock-touching leaf too, but asserts the reviewed
// boundary: callers stay clean.
//
//repllint:pure — fixture: reviewed boundary, result discarded
func Quiet() {
	_ = leaf.Stamp()
}

// Clean only reaches source-justified or compliant leaf helpers, so it
// carries no taint.
func Clean(m map[string]int) []string {
	_ = leaf.Allowed()
	return leaf.Sorted(m)
}
