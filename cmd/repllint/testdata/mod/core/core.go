// Package core is named like a deterministic package, so its call into
// stamp is a determinism finding with a two-hop chain.
package core

import "fixturemod/stamp"

// Plan reaches the wall clock through stamp.Now.
func Plan() int64 {
	return stamp.Now()
}
