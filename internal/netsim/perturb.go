package netsim

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/units"
)

// FactorClass is one row of the perturbation mixture: with probability Frac,
// the actual value is the estimate multiplied by a uniform draw in [Lo, Hi].
type FactorClass struct {
	Frac float64 `json:"frac"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// PerturbConfig describes how actual per-request network attributes deviate
// from the planner's estimates (§5.1). The defaults deliberately degrade
// local performance far more than the repository's, to stress plans that
// replicated aggressively on optimistic estimates.
type PerturbConfig struct {
	LocalRate []FactorClass `json:"localRate"` // 60 % ±10 %, 30 % ×[1/3,1/2], 10 % ×[1/6,1/4]
	RepoRate  []FactorClass `json:"repoRate"`  // ±20 %
	LocalOvhd []FactorClass `json:"localOvhd"` // −10 %..+50 %
	RepoOvhd  []FactorClass `json:"repoOvhd"`  // ±20 %
}

// DefaultPerturbConfig returns the §5.1 perturbation model.
func DefaultPerturbConfig() PerturbConfig {
	return PerturbConfig{
		LocalRate: []FactorClass{
			{Frac: 0.60, Lo: 0.90, Hi: 1.10},
			{Frac: 0.30, Lo: 1.0 / 3.0, Hi: 0.5},
			{Frac: 0.10, Lo: 1.0 / 6.0, Hi: 0.25},
		},
		RepoRate:  []FactorClass{{Frac: 1, Lo: 0.80, Hi: 1.20}},
		LocalOvhd: []FactorClass{{Frac: 1, Lo: 0.90, Hi: 1.50}},
		RepoOvhd:  []FactorClass{{Frac: 1, Lo: 0.80, Hi: 1.20}},
	}
}

// NoPerturbConfig returns an identity perturbation (actual == estimate) —
// useful for validating that the planner is optimal under its own model.
func NoPerturbConfig() PerturbConfig {
	id := []FactorClass{{Frac: 1, Lo: 1, Hi: 1}}
	return PerturbConfig{LocalRate: id, RepoRate: id, LocalOvhd: id, RepoOvhd: id}
}

// Scale returns a perturbation whose deviation from the identity is the
// base's scaled by severity: each class bound b becomes 1 + severity·(b−1),
// clamped to stay positive. Severity 0 is the identity, 1 the base model,
// 2 twice as hostile — the knob behind the sensitivity study of how far
// actual conditions may drift from the planner's estimates before its
// advantage erodes.
func (c PerturbConfig) Scale(severity float64) PerturbConfig {
	scale := func(cs []FactorClass) []FactorClass {
		out := make([]FactorClass, len(cs))
		for i, f := range cs {
			lo := 1 + severity*(f.Lo-1)
			hi := 1 + severity*(f.Hi-1)
			if lo < 1e-3 {
				lo = 1e-3
			}
			if hi < lo {
				hi = lo
			}
			out[i] = FactorClass{Frac: f.Frac, Lo: lo, Hi: hi}
		}
		return out
	}
	return PerturbConfig{
		LocalRate: scale(c.LocalRate),
		RepoRate:  scale(c.RepoRate),
		LocalOvhd: scale(c.LocalOvhd),
		RepoOvhd:  scale(c.RepoOvhd),
	}
}

func validateClasses(name string, cs []FactorClass) error {
	if len(cs) == 0 {
		return fmt.Errorf("netsim: %s perturbation classes empty", name)
	}
	sum := 0.0
	for i, c := range cs {
		if c.Frac <= 0 {
			return fmt.Errorf("netsim: %s class %d has non-positive fraction", name, i)
		}
		if c.Lo <= 0 || c.Hi < c.Lo {
			return fmt.Errorf("netsim: %s class %d has bad factor range [%v,%v]", name, i, c.Lo, c.Hi)
		}
		sum += c.Frac
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("netsim: %s class fractions sum to %v, want 1", name, sum)
	}
	return nil
}

// Validate checks all four mixtures.
func (c *PerturbConfig) Validate() error {
	if err := validateClasses("LocalRate", c.LocalRate); err != nil {
		return err
	}
	if err := validateClasses("RepoRate", c.RepoRate); err != nil {
		return err
	}
	if err := validateClasses("LocalOvhd", c.LocalOvhd); err != nil {
		return err
	}
	return validateClasses("RepoOvhd", c.RepoOvhd)
}

// Perturber draws actual per-request network attributes around a site's
// estimates. One Perturber serves one site within one simulation run; it is
// not safe for concurrent use (each worker owns its own stream).
type Perturber struct {
	cfg PerturbConfig
	est SiteEstimate
	s   *rng.Stream
}

// NewPerturber builds a perturber for one site.
func NewPerturber(cfg PerturbConfig, est SiteEstimate, stream *rng.Stream) (*Perturber, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Perturber{cfg: cfg, est: est, s: stream}, nil
}

func drawFactor(cs []FactorClass, s *rng.Stream) float64 {
	u := s.Float64()
	acc := 0.0
	for _, c := range cs {
		acc += c.Frac
		if u < acc {
			return s.Uniform(c.Lo, c.Hi)
		}
	}
	last := cs[len(cs)-1]
	return s.Uniform(last.Lo, last.Hi)
}

// LocalRate returns the actual transfer rate for one request served by the
// local site.
func (p *Perturber) LocalRate() units.Rate {
	return units.Rate(float64(p.est.LocalRate) * drawFactor(p.cfg.LocalRate, p.s))
}

// RepoRate returns the actual transfer rate for one request served by the
// repository for this site's clients.
func (p *Perturber) RepoRate() units.Rate {
	return units.Rate(float64(p.est.RepoRate) * drawFactor(p.cfg.RepoRate, p.s))
}

// LocalOvhd returns the actual connection overhead of one local request.
func (p *Perturber) LocalOvhd() units.Seconds {
	return units.Seconds(float64(p.est.LocalOvhd) * drawFactor(p.cfg.LocalOvhd, p.s))
}

// RepoOvhd returns the actual connection overhead of one repository request.
func (p *Perturber) RepoOvhd() units.Seconds {
	return units.Seconds(float64(p.est.RepoOvhd) * drawFactor(p.cfg.RepoOvhd, p.s))
}
