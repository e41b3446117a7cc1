package estimate

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Stream label for deriving per-row hash seeds inside one sketch. Like
// sketchSiteStream, the value is load-bearing.
const sketchRowStream uint64 = 2

// siteSketchSeed derives one site's sketch seed from the estimator-level
// seed; a pure function of (seed, site), so sites stay independent and the
// whole estimator is reproducible from Config.SketchSeed.
func siteSketchSeed(seed uint64, site int) uint64 {
	return rng.New(seed).Split(sketchSiteStream, uint64(site)).Seed()
}

// Sketch is a count-min sketch over exponentially-decayed counts: depth
// hash rows of width cells, each cell an (EWMA weight, last-update time)
// pair so decay is applied lazily per touch, exactly like accesslog.EWMA.
// Estimates are one-sided — a collision can only inflate a page's weight,
// never hide it — which is the safe direction for a hot-page detector.
// Not safe for concurrent use; the estimator wraps one per site shard.
type Sketch struct {
	halfLife float64
	width    int
	now      float64
	seeds    []uint64  // one hash seed per row
	weight   []float64 // depth*width cells, row-major
	updated  []float64
}

// NewSketch builds a width×depth sketch with the given half-life (seconds)
// and hash seed. Equal arguments give sketches with identical behavior.
func NewSketch(width, depth int, halfLifeSeconds float64, seed uint64) (*Sketch, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("estimate: sketch dimensions must be positive, got %dx%d", width, depth)
	}
	if halfLifeSeconds <= 0 {
		return nil, fmt.Errorf("estimate: half-life must be positive, got %v", halfLifeSeconds)
	}
	s := &Sketch{
		halfLife: halfLifeSeconds,
		width:    width,
		seeds:    make([]uint64, depth),
		weight:   make([]float64, width*depth),
		updated:  make([]float64, width*depth),
	}
	root := rng.New(seed)
	for r := range s.seeds {
		s.seeds[r] = root.Split(sketchRowStream, uint64(r)).Seed()
	}
	return s, nil
}

// cell returns the flat index of pid's cell in row r: the row hash is the
// SplitMix64 finalizer over (rowSeed XOR key), reduced mod width.
func (s *Sketch) cell(r int, pid workload.PageID) int {
	return r*s.width + int(rng.Mix(s.seeds[r]^uint64(pid))%uint64(s.width))
}

// decayed returns cell i's weight decayed to s.now.
func (s *Sketch) decayed(i int) float64 {
	w := s.weight[i]
	if w == 0 {
		return 0
	}
	dt := s.now - s.updated[i]
	if dt <= 0 {
		return w
	}
	return w * math.Exp2(-dt/s.halfLife)
}

// Observe records one access to page pid at time t (seconds, monotone
// non-decreasing).
func (s *Sketch) Observe(pid workload.PageID, t float64) {
	if t > s.now {
		s.now = t
	}
	for r := range s.seeds {
		i := s.cell(r, pid)
		s.weight[i] = s.decayed(i) + 1
		s.updated[i] = s.now
	}
}

// Weight returns pid's estimated decayed weight: the minimum over rows,
// which upper-bounds the true weight (collisions only add).
func (s *Sketch) Weight(pid workload.PageID) float64 {
	min := s.decayed(s.cell(0, pid))
	for r := 1; r < len(s.seeds); r++ {
		if w := s.decayed(s.cell(r, pid)); w < min {
			min = w
		}
	}
	return min
}

// Advance moves the clock forward without observations.
func (s *Sketch) Advance(t float64) {
	if t > s.now {
		s.now = t
	}
}
