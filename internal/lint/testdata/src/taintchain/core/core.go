// Package core mirrors a real deterministic package by name. The fixture
// proves both halves of the determinism rule: the clock read in
// leaf.Stamp, three calls down (Plan → hub.Mix → leaf.Stamp → time.Now),
// is reported where core imports hub, the first module package outside
// the deterministic set; and a direct wall-clock read in the package itself
// reports where it stands.
package core

import (
	"time"

	"taintchain/hub" // want "determinism: deterministic package .core. imports taintchain/hub, a module package outside the deterministic set"
)

// Plan is the top of the depth-three chain.
func Plan() int64 {
	return hub.Mix()
}

// PlanOrder reaches the map-order effect in leaf.Collect two hops down.
func PlanOrder(m map[string]int) []string {
	return hub.Gather(m)
}

// Deadline reads the wall clock itself: the direct half of the rule.
func Deadline() time.Time {
	return time.Now() // want "determinism: time.Now \(wall clock\) is forbidden in deterministic package .core."
}
