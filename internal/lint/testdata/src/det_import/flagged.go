// Import fixture: the package is named "core", one of the deterministic
// packages, so importing det_other (package other, outside the set) is a
// finding at the import spec, while importing det_allow (package faults,
// inside the set) is not.
package core

import (
	"time"

	faults "det_allow"
	other "det_other" // want "determinism: deterministic package .core. imports det_other, a module package outside the deterministic set"
)

// Stamp reaches the wall clock only through the out-of-set import.
func Stamp() time.Time { return other.Stamp() }

// Span uses the in-set import.
func Span() time.Duration { return faults.Spans() }
