// Package core mirrors a real deterministic package by name. The fixture
// proves both halves of the determinism rule: an impurity chain of depth
// three (Plan → hub.Mix → leaf.Stamp → time.Now) reports at the
// cross-package frontier with the full call path, and a direct wall-clock
// read in the package itself reports where it stands.
package core

import (
	"time"

	"taintchain/hub"
)

// Plan is the top of the depth-three chain.
func Plan() int64 {
	return hub.Mix() // want "determinism: call to hub.Mix leaves deterministic package .core. and reaches ambient state .hub.Mix → leaf.Stamp → time.Now .wall clock.."
}

// PlanOrder hits the map-order seed two hops down.
func PlanOrder(m map[string]int) []string {
	return hub.Gather(m) // want "determinism: call to hub.Gather leaves deterministic package .core. and reaches ambient state .hub.Gather → leaf.Collect → map iteration order."
}

// Deadline reads the wall clock itself: the direct half of the rule, no
// call graph needed.
func Deadline() time.Time {
	return time.Now() // want "determinism: time.Now \(wall clock\) is forbidden in deterministic package .core."
}

// PlanQuiet's callee asserts //repllint:pure: no finding.
func PlanQuiet() {
	hub.Quiet()
}

// PlanClean reaches only source-justified or compliant helpers: no
// finding.
func PlanClean(m map[string]int) []string {
	return hub.Clean(m)
}

// PlanSuppressed demonstrates suppressing the frontier finding itself.
func PlanSuppressed() int64 {
	return hub.Mix() //repllint:allow determinism — fixture: frontier-site suppression
}

// viaPlan calls an impure function of its own package: no finding here,
// the defect is reported once, where Plan crosses the frontier.
func viaPlan() int64 {
	return Plan()
}
