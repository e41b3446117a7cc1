// Package stats provides the measurement plumbing for the experiment
// harness: streaming moments (Welford), percentiles over
// retained samples, confidence intervals over experiment runs, and the
// relative-increase metric the paper's figures plot.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming count/mean/variance/min/max without
// retaining samples (Welford's algorithm). The zero value is ready to use.
type Accumulator struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add records an observation; NaN is ignored.
func (a *Accumulator) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if !a.hasSamples || x < a.min {
		a.min = x
	}
	if !a.hasSamples || x > a.max {
		a.max = x
	}
	a.hasSamples = true
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the unweighted sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 {
	if !a.hasSamples {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 {
	if !a.hasSamples {
		return 0
	}
	return a.max
}

// CI95 returns the half-width of a ~95 % normal-approximation confidence
// interval around the mean. The harness averages 20 runs per point (as the
// paper does), where the normal approximation is adequate.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Merge folds another accumulator into this one (Chan et al. parallel
// variance update), so per-worker accumulators can be combined.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g, %.4g]", a.n, a.Mean(), a.CI95(), a.Min(), a.Max())
}

// Sample retains observations for percentile queries. Use for modest sample
// counts (per-run response-time distributions).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of retained observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the retained observations in insertion order (or sorted
// order if a percentile has been queried). The slice is the internal
// buffer; callers must not mutate it.
func (s *Sample) Values() []float64 { return s.xs }

// Percentile returns the p-quantile (p in [0,1]) using linear interpolation
// between closest ranks; 0 if empty. p is clamped to [0,1].
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := p * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(0.5) }

// RelativeIncrease returns (value/base − 1) expressed in percent — the
// y-axis of the paper's figures ("% increase in response time" over the
// unconstrained proposed policy). A non-positive base yields NaN.
func RelativeIncrease(value, base float64) float64 {
	if base <= 0 {
		return math.NaN()
	}
	return (value/base - 1) * 100
}
