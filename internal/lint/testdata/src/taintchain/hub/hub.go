// Package hub is the intermediate helper of the taint-chain fixture:
// impurity flows through it without any direct ambient access, which is
// exactly what a rule that only looks at direct calls cannot see — so a
// deterministic package may not import it.
package hub

import "taintchain/leaf"

// Mix is impure by transitivity: it calls leaf.Stamp.
func Mix() int64 {
	return leaf.Stamp() + 1
}

// Gather is impure through the map-order effect in leaf.Collect.
func Gather(m map[string]int) []string {
	return leaf.Collect(m)
}
