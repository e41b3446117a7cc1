// Package units provides the value types shared across the repro module:
// byte sizes, transfer rates and request rates. They are thin wrappers over
// float64/int64 that keep the cost-model code dimensionally honest — the
// paper's B(S_i) notation (seconds per byte) and our bytes-per-second rates
// are easy to confuse otherwise.
package units

import (
	"fmt"
	"math"
)

// ByteSize is a size in bytes. It is an int64 so that exact storage
// accounting (Eq. 10 of the paper) never accumulates floating-point error.
type ByteSize int64

// Common byte-size units.
const (
	Byte ByteSize = 1
	KB            = 1 << 10 * Byte
	MB            = 1 << 20 * Byte
	GB            = 1 << 30 * Byte
)

// String renders the size using the largest unit that keeps the mantissa
// readable, e.g. "1.75GB", "640KB", "12B".
func (b ByteSize) String() string {
	switch {
	case b >= GB || b <= -GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB || b <= -MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB || b <= -KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// Rate is a data transfer rate in bytes per second.
type Rate float64

// Common rates.
const (
	BytePerSec Rate = 1
	KBPerSec        = 1024 * BytePerSec
	MBPerSec        = 1024 * KBPerSec
)

// String renders the rate, e.g. "3.00KB/s".
func (r Rate) String() string {
	switch {
	case r >= MBPerSec:
		return fmt.Sprintf("%.2fMB/s", float64(r)/float64(MBPerSec))
	case r >= KBPerSec:
		return fmt.Sprintf("%.2fKB/s", float64(r)/float64(KBPerSec))
	}
	return fmt.Sprintf("%.2fB/s", float64(r))
}

// TransferTime returns how long moving b bytes at rate r takes, in seconds.
// A non-positive rate yields +Inf: in the cost model an unreachable server
// must lose every max(...) comparison rather than panic.
func (r Rate) TransferTime(b ByteSize) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}

// Seconds is a duration in seconds, kept as float64 because the cost model
// is analytic (fractions of perturbed estimates) rather than tick-based.
type Seconds float64

// String renders the duration with millisecond precision, e.g. "1.275s".
func (s Seconds) String() string {
	return fmt.Sprintf("%.3fs", float64(s))
}

// ReqPerSec is a request rate in HTTP requests per second — the unit of the
// paper's processing capacities C(S_i), C(R) and page frequencies f(W_j).
type ReqPerSec float64

// String renders the request rate, e.g. "150.0req/s".
func (r ReqPerSec) String() string {
	return fmt.Sprintf("%.1freq/s", float64(r))
}

// MaxSeconds returns the larger of a and b; it is the max of Eq. 5.
func MaxSeconds(a, b Seconds) Seconds {
	if a > b {
		return a
	}
	return b
}
