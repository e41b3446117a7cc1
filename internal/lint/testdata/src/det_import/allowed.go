//repllint:allow determinism — fixture: this file is the reviewed boundary to package other

// Import fixture, file scope: the same out-of-set import as flagged.go,
// silenced by the header directive.
package core

import (
	"time"

	other "det_other"
)

// Boundary reads the wall clock through the allowed import.
func Boundary() time.Time { return other.Stamp() }
