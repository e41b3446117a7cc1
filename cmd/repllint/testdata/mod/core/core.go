// Package core is named like a deterministic package, so its import of
// stamp, a module package outside the deterministic set, is a determinism
// finding.
package core

import "fixturemod/stamp"

// Plan reaches the wall clock through stamp.Now.
func Plan() int64 {
	return stamp.Now()
}
