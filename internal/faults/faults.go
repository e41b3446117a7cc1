// Package faults is the deterministic fault-injection engine behind the
// repo's robustness experiments. The paper's Section 2 treats the central
// repository as the always-on authoritative root and the local replicas as
// accelerators; this package supplies the failure side of that contract: a
// seeded Plan assigns each server (the repository and every site) a fault
// Spec — error rates, connection resets, truncated bodies, injected latency
// and timed outage windows — and an Injector turns a Spec into a
// reproducible per-request decision stream. The same seed always yields the
// same plan bytes and the same decision sequence, so degraded-mode runs are
// exactly repeatable.
//
// Two consumers exist: internal/webserve wraps each server's handler in
// Middleware (live loopback chaos), and internal/httpsim models outages
// analytically via its Config.Outage (the simulator does not need
// per-request byte faults — a view either finds its site up or down).
package faults

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/rng"
)

// Window is a half-open [Start, End) interval of elapsed time since the
// plan was armed, during which the server is fully out: every request fails
// before the handler runs.
type Window struct {
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
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
	ErrorRate float64 `json:"error_rate,omitempty"`
	// ResetRate is the probability the connection is dropped before any
	// response byte (the client sees EOF / connection reset).
	ResetRate float64 `json:"reset_rate,omitempty"`
	// TruncateRate is the probability the response body is cut partway
	// through and the connection dropped (the client sees an unexpected
	// EOF mid-body).
	TruncateRate float64 `json:"truncate_rate,omitempty"`
	// CorruptRate is the probability a response body is served with a
	// deterministic bit-flip — wire corruption the receiver can only catch
	// end to end (the payloads are self-verifying, so it always can).
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	// Latency is added to every request before it is served.
	Latency time.Duration `json:"latency,omitempty"`
	// LatencyJitter adds a uniform extra delay in [0, LatencyJitter).
	LatencyJitter time.Duration `json:"latency_jitter,omitempty"`
	// Outages lists full-failure windows; during one, every request fails
	// with 503 regardless of the rates above.
	Outages []Window `json:"outages,omitempty"`

	// Gray failures — the modes /healthz cannot see (or sees wrongly).
	// All of them are window- or set-driven with zero randomness consumed,
	// so arming them never shifts the rate-fault decision stream.

	// Rot lists object IDs whose stored replica is persistently corrupt at
	// this server: every /mo/<id> response for a rotted object carries a
	// deterministic seeded bit-flip until the rot is cleared (an
	// anti-entropy repair re-writing the replica).
	Rot []int `json:"rot,omitempty"`
	// LimpLatency is the extra fixed delay added to every request during a
	// Limps window — a limping (slow-node) server, distinct from the
	// one-shot Latency above: it is persistent, exact, and consumes no
	// randomness, so a latency-aware health check can prove it detected it.
	LimpLatency time.Duration `json:"limp_latency,omitempty"`
	// Limps lists the limping windows.
	Limps []Window `json:"limps,omitempty"`
	// PartitionControl lists windows during which only the control plane is
	// cut: /healthz fails while data paths serve normally — the site looks
	// dead to the supervisor but fine to clients.
	PartitionControl []Window `json:"partition_control,omitempty"`
	// PartitionData lists the inverse partial partition: data paths drop
	// their connections while /healthz keeps answering 200 — the site looks
	// fine to the supervisor but dead to clients.
	PartitionData []Window `json:"partition_data,omitempty"`
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

// FullOutage returns a spec that fails every request forever — the
// "dead site" used by the degraded-mode acceptance tests.
func FullOutage() Spec {
	return Spec{Outages: []Window{{Start: 0, End: time.Duration(1<<63 - 1)}}}
}

// Plan is a cluster-wide fault assignment: one spec for the repository and
// one per site, plus the seed that derives every injector's decision
// stream. Plans marshal to canonical JSON, so equal plans have equal bytes.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Repo  Spec   `json:"repo"`
	Sites []Spec `json:"sites"`
	// LoadSpikes are demand-side fault windows: while elapsed time is inside
	// a spike, the offered arrival rate of any load generator consulting
	// RateAt is multiplied by Factor. A flash crowd is a fault of the
	// environment, not of a server, so it lives in the plan next to the
	// supply-side windows — same clock, same JSON round-trip, same
	// reproducibility.
	LoadSpikes []LoadSpike `json:"load_spikes,omitempty"`
}

// LoadSpike is one demand surge: the window it occupies on the plan clock
// and the multiplicative factor it applies to the base arrival rate.
type LoadSpike struct {
	Window
	Factor float64 `json:"factor"`
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

// Encode renders the plan as canonical (indented, key-ordered) JSON. Two
// plans generated from the same (config, sites, seed) encode to identical
// bytes — the property the determinism tests pin.
func (p *Plan) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Decode parses a plan previously produced by Encode. The result is
// normalized to the canonical in-memory form (empty slices nil, exactly
// what Encode omits), so decoding is lossless against re-encoding.
func Decode(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: decode plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.normalize()
	return &p, nil
}

// normalize collapses empty slices to nil — the canonical form Encode's
// omitempty produces — so Decode∘Encode is the identity on decoded plans.
func (p *Plan) normalize() {
	if len(p.Sites) == 0 {
		p.Sites = nil
	}
	if len(p.LoadSpikes) == 0 {
		p.LoadSpikes = nil
	}
	p.Repo.normalize()
	for i := range p.Sites {
		p.Sites[i].normalize()
	}
}

// normalize collapses a spec's empty slices to nil (what omitempty emits).
func (s *Spec) normalize() {
	if len(s.Outages) == 0 {
		s.Outages = nil
	}
	if len(s.Rot) == 0 {
		s.Rot = nil
	}
	if len(s.Limps) == 0 {
		s.Limps = nil
	}
	if len(s.PartitionControl) == 0 {
		s.PartitionControl = nil
	}
	if len(s.PartitionData) == 0 {
		s.PartitionData = nil
	}
}

// SiteSpec returns site i's spec (the zero quiet spec when the plan has
// fewer sites). Nil-tolerant: a nil plan injects nothing anywhere.
func (p *Plan) SiteSpec(i int) Spec {
	if p == nil || i < 0 || i >= len(p.Sites) {
		return Spec{}
	}
	return p.Sites[i]
}

// RepoSpec returns the repository's spec (quiet on a nil plan).
func (p *Plan) RepoSpec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.Repo
}

// PlanConfig parameterizes Generate: Level scales every drawn rate, so one
// knob sweeps a cluster from healthy (0) to badly degraded (1).
type PlanConfig struct {
	// Level in [0, 1] scales the drawn per-request fault rates.
	Level float64
	// MaxLatency bounds the per-server injected base latency.
	MaxLatency time.Duration
	// OutageProb is the probability each site receives one outage window.
	OutageProb float64
	// OutageMax bounds an outage window's length.
	OutageMax time.Duration
	// Horizon is the time span within which outage windows start.
	Horizon time.Duration
}

// DefaultPlanConfig returns a moderate chaos profile: a few percent of
// requests faulted at Level 1, tens of milliseconds of latency, and
// occasional sub-second outage windows inside a one-minute horizon.
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{
		Level:      1,
		MaxLatency: 30 * time.Millisecond,
		OutageProb: 0.25,
		OutageMax:  500 * time.Millisecond,
		Horizon:    time.Minute,
	}
}

// Validate rejects unusable configs.
func (c *PlanConfig) Validate() error {
	if c.Level < 0 || c.Level > 1 {
		return fmt.Errorf("faults: Level %v outside [0, 1]", c.Level)
	}
	if c.OutageProb < 0 || c.OutageProb > 1 {
		return fmt.Errorf("faults: OutageProb %v outside [0, 1]", c.OutageProb)
	}
	if c.MaxLatency < 0 || c.OutageMax < 0 || c.Horizon < 0 {
		return fmt.Errorf("faults: negative duration")
	}
	return nil
}

// Stream labels for plan generation; fixed so plans are stable across
// refactors that reorder the drawing code. 301 was the repository's, when
// Generate could fault it; the blank keeps every later label's value.
const (
	_ uint64 = iota + 301
	planSiteStream
)

// Generate draws a fault plan for a cluster of the given size; the
// repository stays quiet, the paper's always-on root. Generation is a pure
// function of (cfg, sites, seed): per-site specs come from independent
// child streams, so adding a site never perturbs the others.
func Generate(cfg PlanConfig, sites int, seed uint64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sites < 0 {
		return nil, fmt.Errorf("faults: negative site count %d", sites)
	}
	root := rng.New(seed)
	p := &Plan{Seed: seed, Sites: make([]Spec, sites)}
	for i := 0; i < sites; i++ {
		p.Sites[i] = drawSpec(cfg, root.Split(planSiteStream, uint64(i)))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// drawSpec draws one server's spec. At Level 1 the expected per-request
// fault probability is ≈6 % split across the three kinds.
func drawSpec(cfg PlanConfig, s *rng.Stream) Spec {
	spec := Spec{
		ErrorRate:    cfg.Level * s.Uniform(0, 0.04),
		ResetRate:    cfg.Level * s.Uniform(0, 0.02),
		TruncateRate: cfg.Level * s.Uniform(0, 0.02),
	}
	if cfg.MaxLatency > 0 {
		spec.Latency = time.Duration(cfg.Level * s.Uniform(0, float64(cfg.MaxLatency)))
		spec.LatencyJitter = spec.Latency / 2
	}
	if s.Bool(cfg.OutageProb) && cfg.OutageMax > 0 {
		start := time.Duration(s.Uniform(0, float64(cfg.Horizon)))
		length := time.Duration(s.Uniform(float64(cfg.OutageMax)/4, float64(cfg.OutageMax)))
		spec.Outages = []Window{{Start: start, End: start + length}}
	}
	return spec
}
