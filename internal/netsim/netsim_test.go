package netsim

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

func TestDrawEstimatesRanges(t *testing.T) {
	cfg := DefaultConfig()
	e, err := DrawEstimates(cfg, 50, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sites) != 50 {
		t.Fatalf("sites = %d", len(e.Sites))
	}
	for i, s := range e.Sites {
		if s.LocalRate < cfg.LocalRateLo || s.LocalRate > cfg.LocalRateHi {
			t.Errorf("site %d LocalRate %v out of range", i, s.LocalRate)
		}
		if s.RepoRate < cfg.RepoRateLo || s.RepoRate > cfg.RepoRateHi {
			t.Errorf("site %d RepoRate %v out of range", i, s.RepoRate)
		}
		if s.LocalOvhd < cfg.LocalOvhdLo || s.LocalOvhd > cfg.LocalOvhdHi {
			t.Errorf("site %d LocalOvhd %v out of range", i, s.LocalOvhd)
		}
		if s.RepoOvhd < cfg.RepoOvhdLo || s.RepoOvhd > cfg.RepoOvhdHi {
			t.Errorf("site %d RepoOvhd %v out of range", i, s.RepoOvhd)
		}
		// In the paper's environment the repository is always the slower
		// path per byte.
		if s.RepoRate >= s.LocalRate {
			t.Errorf("site %d: repo rate %v not below local rate %v", i, s.RepoRate, s.LocalRate)
		}
	}
}

func TestDrawEstimatesDeterministic(t *testing.T) {
	a, _ := DrawEstimates(DefaultConfig(), 10, rng.New(5))
	b, _ := DrawEstimates(DefaultConfig(), 10, rng.New(5))
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d estimates differ across identical seeds", i)
		}
	}
}

func TestDrawEstimatesValidation(t *testing.T) {
	if _, err := DrawEstimates(DefaultConfig(), 0, rng.New(1)); err == nil {
		t.Error("zero sites accepted")
	}
	bad := DefaultConfig()
	bad.LocalRateHi = bad.LocalRateLo - 1
	if _, err := DrawEstimates(bad, 3, rng.New(1)); err == nil {
		t.Error("inverted rate range accepted")
	}
	bad = DefaultConfig()
	bad.RepoOvhdLo = -1
	if _, err := DrawEstimates(bad, 3, rng.New(1)); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestPerturbConfigValidation(t *testing.T) {
	good := DefaultPerturbConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default perturb config invalid: %v", err)
	}
	bad := DefaultPerturbConfig()
	bad.LocalRate[0].Frac = 0.5 // no longer sums to 1
	if err := bad.Validate(); err == nil {
		t.Error("non-normalized mixture accepted")
	}
	bad2 := DefaultPerturbConfig()
	bad2.RepoRate = nil
	if err := bad2.Validate(); err == nil {
		t.Error("empty mixture accepted")
	}
	bad3 := DefaultPerturbConfig()
	bad3.LocalOvhd[0].Lo = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestPerturberMixtureFractions(t *testing.T) {
	est := SiteEstimate{LocalRate: 6 * units.KBPerSec, RepoRate: units.KBPerSec, LocalOvhd: 1.5, RepoOvhd: 2.2}
	p, err := NewPerturber(DefaultPerturbConfig(), est, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var near, mid, far int
	for i := 0; i < n; i++ {
		f := float64(p.LocalRate()) / float64(est.LocalRate)
		switch {
		case f >= 0.9 && f <= 1.1:
			near++
		case f >= 1.0/3-1e-9 && f <= 0.5+1e-9:
			mid++
		case f >= 1.0/6-1e-9 && f <= 0.25+1e-9:
			far++
		default:
			t.Fatalf("local rate factor %v outside every class", f)
		}
	}
	if got := float64(near) / n; math.Abs(got-0.6) > 0.01 {
		t.Errorf("±10%% class frequency = %v, want 0.6", got)
	}
	if got := float64(mid) / n; math.Abs(got-0.3) > 0.01 {
		t.Errorf("1/3-1/2 class frequency = %v, want 0.3", got)
	}
	if got := float64(far) / n; math.Abs(got-0.1) > 0.01 {
		t.Errorf("1/6-1/4 class frequency = %v, want 0.1", got)
	}
}

func TestPerturberRepoAndOverheadBounds(t *testing.T) {
	est := SiteEstimate{LocalRate: 6 * units.KBPerSec, RepoRate: units.KBPerSec, LocalOvhd: 1.5, RepoOvhd: 2.2}
	p, err := NewPerturber(DefaultPerturbConfig(), est, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if f := float64(p.RepoRate()) / float64(est.RepoRate); f < 0.8 || f > 1.2 {
			t.Fatalf("repo rate factor %v outside ±20%%", f)
		}
		if f := float64(p.LocalOvhd()) / float64(est.LocalOvhd); f < 0.9 || f > 1.5 {
			t.Fatalf("local overhead factor %v outside [-10%%,+50%%]", f)
		}
		if f := float64(p.RepoOvhd()) / float64(est.RepoOvhd); f < 0.8 || f > 1.2 {
			t.Fatalf("repo overhead factor %v outside ±20%%", f)
		}
	}
}

func TestNoPerturbIsIdentity(t *testing.T) {
	est := SiteEstimate{LocalRate: 5 * units.KBPerSec, RepoRate: units.KBPerSec, LocalOvhd: 1.3, RepoOvhd: 2.0}
	p, err := NewPerturber(NoPerturbConfig(), est, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if p.LocalRate() != est.LocalRate || p.RepoRate() != est.RepoRate {
			t.Fatal("identity perturbation changed a rate")
		}
		if p.LocalOvhd() != est.LocalOvhd || p.RepoOvhd() != est.RepoOvhd {
			t.Fatal("identity perturbation changed an overhead")
		}
	}
}

func TestNewPerturberRejectsBadConfig(t *testing.T) {
	bad := DefaultPerturbConfig()
	bad.LocalRate = nil
	if _, err := NewPerturber(bad, SiteEstimate{}, rng.New(1)); err == nil {
		t.Error("bad config accepted")
	}
}

func TestPerturbScale(t *testing.T) {
	base := DefaultPerturbConfig()
	id := base.Scale(0)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range id.LocalRate {
		if c.Lo != 1 || c.Hi != 1 {
			t.Errorf("severity 0 not identity: %+v", c)
		}
	}
	same := base.Scale(1)
	for i, c := range same.LocalRate {
		if math.Abs(c.Lo-base.LocalRate[i].Lo) > 1e-12 || math.Abs(c.Hi-base.LocalRate[i].Hi) > 1e-12 {
			t.Errorf("severity 1 changed class %d: %+v", i, c)
		}
	}
	harsh := base.Scale(3)
	if err := harsh.Validate(); err != nil {
		t.Fatal(err)
	}
	// The congestion class (1/6..1/4) scaled by 3 would go negative — it
	// must clamp positive.
	for _, c := range harsh.LocalRate {
		if c.Lo <= 0 {
			t.Errorf("scaled class not clamped: %+v", c)
		}
		if c.Hi < c.Lo {
			t.Errorf("inverted class after scale: %+v", c)
		}
	}
}
