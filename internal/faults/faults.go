// Package faults is the deterministic fault-injection engine behind the
// repo's robustness experiments. The paper's Section 2 treats the central
// repository as the always-on authoritative root and the local replicas as
// accelerators; this package supplies the failure side of that contract: a
// seeded Plan assigns each server (the repository and every site) a fault
// Spec — error rates, connection resets, truncated bodies, injected latency
// and timed outage windows — and an Injector turns a Spec into a
// reproducible per-request decision stream. The same seed always yields the
// same plan and the same decision sequence, so degraded-mode runs are
// exactly repeatable.
//
// Two consumers exist: internal/webserve wraps each server's handler in
// Middleware (live loopback chaos), and internal/httpsim models outages
// analytically via its Config.Outage (the simulator does not need
// per-request byte faults — a view either finds its site up or down).
package faults

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// Window is a half-open [Start, End) interval of elapsed time since the
// plan was armed, during which the server is fully out: every request fails
// before the handler runs.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Contains reports whether elapsed falls inside the window.
func (w Window) Contains(elapsed time.Duration) bool {
	return elapsed >= w.Start && elapsed < w.End
}

// Spec describes one server's fault behaviour. Rates are per-request
// probabilities drawn from a single uniform variate, so they are mutually
// exclusive and must sum to at most 1.
type Spec struct {
	// ErrorRate is the probability a request is answered 503 instead of
	// being served.
	ErrorRate float64
	// ResetRate is the probability the connection is dropped before any
	// response byte (the client sees EOF / connection reset).
	ResetRate float64
	// TruncateRate is the probability the response body is cut partway
	// through and the connection dropped (the client sees an unexpected
	// EOF mid-body).
	TruncateRate float64
	// CorruptRate is the probability a response body is served with a
	// deterministic bit-flip — wire corruption the receiver can only catch
	// end to end (the payloads are self-verifying, so it always can).
	CorruptRate float64
	// Latency is added to every request before it is served.
	Latency time.Duration
	// LatencyJitter adds a uniform extra delay in [0, LatencyJitter).
	LatencyJitter time.Duration
	// Outages lists full-failure windows; during one, every request fails
	// with 503 regardless of the rates above.
	Outages []Window

	// Gray failures — the modes /healthz cannot see (or sees wrongly).
	// All of them are window- or set-driven with zero randomness consumed,
	// so arming them never shifts the rate-fault decision stream.

	// Rot lists object IDs whose stored replica is persistently corrupt at
	// this server: every /mo/<id> response for a rotted object carries a
	// deterministic seeded bit-flip until the rot is cleared (an
	// anti-entropy repair re-writing the replica).
	Rot []int
	// LimpLatency is the extra fixed delay added to every request during a
	// Limps window — a limping (slow-node) server, distinct from the
	// one-shot Latency above: it is persistent, exact, and consumes no
	// randomness, so a latency-aware health check can prove it detected it.
	LimpLatency time.Duration
	// Limps lists the limping windows.
	Limps []Window
	// PartitionControl lists windows during which only the control plane is
	// cut: /healthz fails while data paths serve normally — the site looks
	// dead to the supervisor but fine to clients.
	PartitionControl []Window
	// PartitionData lists the inverse partial partition: data paths drop
	// their connections while /healthz keeps answering 200 — the site looks
	// fine to the supervisor but dead to clients.
	PartitionData []Window
}

// Validate rejects unusable specs.
func (s *Spec) Validate() error {
	for _, r := range []float64{s.ErrorRate, s.ResetRate, s.TruncateRate, s.CorruptRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: rate %v outside [0, 1]", r)
		}
	}
	if sum := s.ErrorRate + s.ResetRate + s.TruncateRate + s.CorruptRate; sum > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", sum)
	}
	if s.Latency < 0 || s.LatencyJitter < 0 || s.LimpLatency < 0 {
		return fmt.Errorf("faults: negative latency")
	}
	for _, k := range s.Rot {
		if k < 0 {
			return fmt.Errorf("faults: negative rot object %d", k)
		}
	}
	for _, ws := range [][]Window{s.Outages, s.Limps, s.PartitionControl, s.PartitionData} {
		for _, w := range ws {
			if w.End < w.Start || w.Start < 0 {
				return fmt.Errorf("faults: window [%v, %v) is invalid", w.Start, w.End)
			}
		}
	}
	return nil
}

// Quiet reports whether the spec injects nothing.
func (s Spec) Quiet() bool {
	return s.ErrorRate == 0 && s.ResetRate == 0 && s.TruncateRate == 0 &&
		s.CorruptRate == 0 && s.Latency == 0 && s.LatencyJitter == 0 &&
		len(s.Outages) == 0 && len(s.Rot) == 0 &&
		s.LimpLatency == 0 && len(s.Limps) == 0 &&
		len(s.PartitionControl) == 0 && len(s.PartitionData) == 0
}

// Plan is a cluster-wide fault assignment: one spec for the repository and
// one per site, plus the seed that derives every injector's decision
// stream.
type Plan struct {
	Seed  uint64
	Repo  Spec
	Sites []Spec
	// LoadSpikes are demand-side fault windows: while elapsed time is inside
	// a spike, the offered arrival rate of any load generator consulting
	// RateAt is multiplied by Factor. A flash crowd is a fault of the
	// environment, not of a server, so it lives in the plan next to the
	// supply-side windows — same clock, same reproducibility.
	LoadSpikes []LoadSpike
}

// LoadSpike is one demand surge: the window it occupies on the plan clock
// and the multiplicative factor it applies to the base arrival rate.
type LoadSpike struct {
	Window
	Factor float64
}

// Validate rejects unusable plans.
func (p *Plan) Validate() error {
	if err := p.Repo.Validate(); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	for i := range p.Sites {
		if err := p.Sites[i].Validate(); err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
	}
	for i, sp := range p.LoadSpikes {
		if sp.End <= sp.Start {
			return fmt.Errorf("load spike %d: empty window [%v, %v)", i, sp.Start, sp.End)
		}
		if sp.Factor <= 0 {
			return fmt.Errorf("load spike %d: factor %v must be positive", i, sp.Factor)
		}
	}
	return nil
}

// RateAt returns the offered arrival rate at elapsed time on the plan
// clock: base multiplied by every containing spike's factor (overlapping
// spikes compound). Nil-tolerant — a nil plan never spikes.
func (p *Plan) RateAt(base float64, elapsed time.Duration) float64 {
	if p == nil {
		return base
	}
	rate := base
	for _, sp := range p.LoadSpikes {
		if sp.Contains(elapsed) {
			rate *= sp.Factor
		}
	}
	return rate
}

// SiteSpec returns site i's spec (the zero quiet spec when the plan has
// fewer sites). Nil-tolerant: a nil plan injects nothing anywhere.
func (p *Plan) SiteSpec(i int) Spec {
	if p == nil || i < 0 || i >= len(p.Sites) {
		return Spec{}
	}
	return p.Sites[i]
}

// Generate's chaos profile at level 1: a few percent of requests faulted,
// tens of milliseconds of latency, and occasional sub-second outage windows
// inside a one-minute horizon.
const (
	planMaxLatency = 30 * time.Millisecond  // bounds a server's injected base latency
	planOutageProb = 0.25                   // chance a site receives one outage window
	planOutageMax  = 500 * time.Millisecond // bounds an outage window's length
	planHorizon    = time.Minute            // span within which outage windows start
)

// Stream labels for plan generation; fixed so plans are stable across
// refactors that reorder the drawing code. 301 was the repository's, when
// Generate could fault it; the blank keeps every later label's value.
const (
	_ uint64 = iota + 301
	planSiteStream
)

// Generate draws a fault plan for a cluster of the given size; the
// repository stays quiet, the paper's always-on root. level in [0, 1] scales
// every drawn rate and latency, so one knob sweeps a cluster from healthy (0)
// to badly degraded (1). Generation is a pure function of (level, sites,
// seed): per-site specs come from independent child streams, so adding a
// site never perturbs the others.
func Generate(level float64, sites int, seed uint64) (*Plan, error) {
	if level < 0 || level > 1 {
		return nil, fmt.Errorf("faults: level %v outside [0, 1]", level)
	}
	if sites < 0 {
		return nil, fmt.Errorf("faults: negative site count %d", sites)
	}
	root := rng.New(seed)
	p := &Plan{Seed: seed, Sites: make([]Spec, sites)}
	for i := 0; i < sites; i++ {
		p.Sites[i] = drawSpec(level, root.Split(planSiteStream, uint64(i)))
	}
	return p, nil
}

// drawSpec draws one server's spec. At level 1 the expected per-request
// fault probability is ≈6 % split across the three kinds.
func drawSpec(level float64, s *rng.Stream) Spec {
	spec := Spec{
		ErrorRate:    level * s.Uniform(0, 0.04),
		ResetRate:    level * s.Uniform(0, 0.02),
		TruncateRate: level * s.Uniform(0, 0.02),
	}
	spec.Latency = time.Duration(level * s.Uniform(0, float64(planMaxLatency)))
	spec.LatencyJitter = spec.Latency / 2
	if s.Bool(planOutageProb) {
		start := time.Duration(s.Uniform(0, float64(planHorizon)))
		length := time.Duration(s.Uniform(float64(planOutageMax)/4, float64(planOutageMax)))
		spec.Outages = []Window{{Start: start, End: start + length}}
	}
	return spec
}
