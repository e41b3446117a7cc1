package faults

import (
	"sync"
	"time"

	"repro/internal/rng"
)

// Action is what the injector does to one request.
type Action int

const (
	// None serves the request untouched (beyond any injected delay).
	None Action = iota
	// Fail answers 503 Service Unavailable without running the handler.
	Fail
	// Reset drops the connection before any response byte.
	Reset
	// Truncate serves part of the response body, then drops the connection.
	Truncate
	// Corrupt serves the full response body with a deterministic bit-flip:
	// the transfer succeeds at the transport layer and only an end-to-end
	// check can tell.
	Corrupt
)

// String names the action for logs and test failures.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// HealthzPath is the health endpoint the partial-partition windows key on.
const HealthzPath = "/healthz"

// Decision is the injector's verdict for one request.
type Decision struct {
	Action Action
	// Delay is injected before the action (including before a clean serve).
	Delay time.Duration
	// CorruptFrac and CorruptMask parameterize a Corrupt action: the byte
	// at offset CorruptFrac·body-length is XORed with CorruptMask.
	CorruptFrac float64
	CorruptMask byte
}

// rotFlipStream labels the child streams that derive a rotted replica's
// deterministic flip parameters (pure functions of the injector seed and
// object ID — no draw ever touches the request-decision stream).
const rotFlipStream uint64 = 331

// Injector turns a Spec into a deterministic per-request decision stream.
// It is safe for concurrent use; concurrent requests serialize on one
// internal stream, so the decision *sequence* is seed-determined even
// though which request observes which decision depends on arrival order.
type Injector struct {
	spec Spec
	seed uint64

	mu     sync.Mutex
	stream *rng.Stream
	rot    map[int]bool // mutable: anti-entropy repair clears entries
}

// NewInjector builds an injector for the spec, its randomness derived from
// seed. The spec must have passed Validate.
func NewInjector(spec Spec, seed uint64) *Injector {
	in := &Injector{spec: spec, seed: seed, stream: rng.New(seed)}
	if len(spec.Rot) > 0 {
		in.rot = make(map[int]bool, len(spec.Rot))
		for _, k := range spec.Rot {
			in.rot[k] = true
		}
	}
	return in
}

// Spec returns the injector's spec.
func (in *Injector) Spec() Spec { return in.spec }

// Rotted reports whether object k's replica is currently rotted here.
func (in *Injector) Rotted(k int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rot[k]
}

// ClearRot marks object k's replica repaired: subsequent serves are clean.
// The anti-entropy loop calls this after re-shipping the replica from the
// repository. Safe under concurrent serving.
func (in *Injector) ClearRot(k int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rot, k)
}

// RotCount returns how many replicas are still rotted.
func (in *Injector) RotCount() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.rot)
}

// RotFlip returns the deterministic flip parameters for rotted object k —
// a pure function of (injector seed, k), so a rotted replica serves the
// *same* wrong bytes on every read, exactly like on-disk bit-rot.
func (in *Injector) RotFlip(k int) (frac float64, mask byte) {
	s := rng.New(in.seed).Split(rotFlipStream, uint64(k))
	frac = s.Float64()
	mask = byte(s.IntN(255) + 1) // never zero: the flip must change the byte
	return frac, mask
}

// DecideRequest returns the fault decision for a request to path arriving
// at the given elapsed time since the plan was armed. Window-driven modes
// dominate and consume no randomness — an outage, limp or partition never
// shifts the post-window decision stream:
//
//   - outage windows fail everything;
//   - control partitions fail only HealthzPath, data partitions reset
//     everything else;
//   - limp windows add the fixed LimpLatency to the delay.
//
// Rot is handled separately (Rotted/RotFlip): it keys on the object served,
// which only the middleware knows.
func (in *Injector) DecideRequest(elapsed time.Duration, path string) Decision {
	for _, w := range in.spec.Outages {
		if w.Contains(elapsed) {
			return Decision{Action: Fail}
		}
	}
	if path == HealthzPath {
		for _, w := range in.spec.PartitionControl {
			if w.Contains(elapsed) {
				return Decision{Action: Fail}
			}
		}
	} else if path != "" {
		for _, w := range in.spec.PartitionData {
			if w.Contains(elapsed) {
				return Decision{Action: Reset}
			}
		}
	}
	var limp time.Duration
	if in.spec.LimpLatency > 0 {
		for _, w := range in.spec.Limps {
			if w.Contains(elapsed) {
				limp = in.spec.LimpLatency
				break
			}
		}
	}
	if in.spec.quietRates() {
		return Decision{Delay: limp}
	}

	in.mu.Lock()
	d := Decision{Delay: limp}
	if in.spec.LatencyJitter > 0 {
		d.Delay += in.spec.Latency + time.Duration(in.stream.Uniform(0, float64(in.spec.LatencyJitter)))
	} else {
		d.Delay += in.spec.Latency
	}
	// One uniform variate picks among the mutually-exclusive fault kinds.
	u := in.stream.Float64()
	switch {
	case u < in.spec.ErrorRate:
		d.Action = Fail
	case u < in.spec.ErrorRate+in.spec.ResetRate:
		d.Action = Reset
	case u < in.spec.ErrorRate+in.spec.ResetRate+in.spec.TruncateRate:
		d.Action = Truncate
	case u < in.spec.ErrorRate+in.spec.ResetRate+in.spec.TruncateRate+in.spec.CorruptRate:
		d.Action = Corrupt
		// Flip parameters drawn only on the corrupt branch: the decision
		// sequence stays a pure function of the seed and arrival order.
		d.CorruptFrac = in.stream.Float64()
		d.CorruptMask = byte(in.stream.IntN(255) + 1)
	}
	in.mu.Unlock()
	return d
}

// quietRates reports whether the randomized per-request part of the spec
// (rates and latency) injects nothing — the window-driven gray modes are
// judged separately, without consuming randomness.
func (s Spec) quietRates() bool {
	return s.ErrorRate == 0 && s.ResetRate == 0 && s.TruncateRate == 0 &&
		s.CorruptRate == 0 && s.Latency == 0 && s.LatencyJitter == 0
}
