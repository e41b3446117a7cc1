package rng

import (
	"fmt"
	"sort"
)

// HotCold models the paper's skewed page popularity: a "hot" fraction of the
// population receives a "hot" share of the traffic (Table 1: 10 % of pages
// account for 60 % of requests), uniform within each class.
type HotCold struct {
	n        int // population size
	hotCount int // number of hot members (the first hotCount indices)
	hotShare float64
}

// NewHotCold builds a hot/cold selector over a population of n items where
// hotFrac of them (at least one, when n > 0) draw hotShare of the traffic.
// The hot items are indices [0, hotCount); callers who need a random hot set
// should permute their population first.
func NewHotCold(n int, hotFrac, hotShare float64) (*HotCold, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: HotCold population must be positive, got %d", n)
	}
	if hotFrac < 0 || hotFrac > 1 || hotShare < 0 || hotShare > 1 {
		return nil, fmt.Errorf("rng: HotCold fractions must be in [0,1], got frac=%v share=%v", hotFrac, hotShare)
	}
	hot := int(float64(n)*hotFrac + 0.5)
	if hot == 0 && hotFrac > 0 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	if hot == n || hot == 0 {
		// Degenerate: everything is one class; fall back to uniform.
		return &HotCold{n: n, hotCount: n, hotShare: 1}, nil
	}
	return &HotCold{n: n, hotCount: hot, hotShare: hotShare}, nil
}

// Weight returns the probability mass of index i under the mixture.
func (h *HotCold) Weight(i int) float64 {
	if i < 0 || i >= h.n {
		return 0
	}
	if h.hotCount == h.n {
		return 1 / float64(h.n)
	}
	if i < h.hotCount {
		return h.hotShare / float64(h.hotCount)
	}
	return (1 - h.hotShare) / float64(h.n-h.hotCount)
}

// HotCount returns how many leading indices are hot.
func (h *HotCold) HotCount() int { return h.hotCount }

// SizeClass describes one row of the paper's size tables: a fraction of the
// population whose sizes are uniform in [Lo, Hi].
type SizeClass struct {
	Frac   float64
	Lo, Hi int64 // bytes, inclusive range
}

// ClassedSampler draws sizes from a mixture of uniform ranges, e.g. Table 1's
// "30 % small 40K-300K, 60 % medium 300K-800K, 10 % large 800K-4M".
type ClassedSampler struct {
	classes []SizeClass
	cum     []float64
}

// NewClassedSampler validates the classes and builds a sampler. Fractions
// must be positive and sum to 1 within 1e-9.
func NewClassedSampler(classes []SizeClass) (*ClassedSampler, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("rng: ClassedSampler needs at least one class")
	}
	sum := 0.0
	cum := make([]float64, len(classes))
	for i, c := range classes {
		if c.Frac <= 0 {
			return nil, fmt.Errorf("rng: class %d has non-positive fraction %v", i, c.Frac)
		}
		if c.Lo <= 0 || c.Hi < c.Lo {
			return nil, fmt.Errorf("rng: class %d has invalid range [%d,%d]", i, c.Lo, c.Hi)
		}
		sum += c.Frac
		cum[i] = sum
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return nil, fmt.Errorf("rng: class fractions sum to %v, want 1", sum)
	}
	cum[len(cum)-1] = 1 // absorb rounding
	return &ClassedSampler{classes: classes, cum: cum}, nil
}

// Draw samples a size in bytes.
func (c *ClassedSampler) Draw(s *Stream) int64 {
	u := s.Float64()
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.classes) {
		i = len(c.classes) - 1
	}
	cl := c.classes[i]
	if cl.Hi == cl.Lo {
		return cl.Lo
	}
	return cl.Lo + int64(s.Float64()*float64(cl.Hi-cl.Lo+1))
}
