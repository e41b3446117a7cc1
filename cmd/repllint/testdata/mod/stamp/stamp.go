// Package stamp is outside the deterministic set: reading the clock here
// is legal, being imported by core is not.
package stamp

import "time"

// Now reads the wall clock.
func Now() int64 {
	return time.Now().UnixNano()
}

// Half carries an allow that suppresses nothing, so every run reports it
// as stale.
func Half(x int) int {
	return x / 2 //repllint:allow float-compare — fixture: stale on purpose
}
