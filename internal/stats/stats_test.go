package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("zero accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorIgnoresBadInput(t *testing.T) {
	var a Accumulator
	a.Add(math.NaN())
	if a.N() != 0 {
		t.Errorf("bad inputs were recorded: N=%d", a.N())
	}
}

func TestAccumulatorMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var whole, left, right, empty Accumulator
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d", left.N())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged Mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-10 {
		t.Errorf("merged Variance = %v, want %v", left.Variance(), whole.Variance())
	}
	if left.Min() != 1 || left.Max() != 10 {
		t.Errorf("merged Min/Max = %v/%v", left.Min(), left.Max())
	}
	// Merging an empty accumulator is a no-op; merging into empty copies.
	before := left
	left.Merge(&empty)
	if left != before {
		t.Error("merging empty changed state")
	}
	empty.Merge(&whole)
	if empty.N() != whole.N() || empty.Mean() != whole.Mean() {
		t.Error("merge into empty did not copy")
	}
}

func TestAccumulatorMergeProperty(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := int(split) % len(clean)
		var whole, a, b Accumulator
		for i, x := range clean {
			whole.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-6 &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStdErrAndCI(t *testing.T) {
	var a Accumulator
	for i := 0; i < 100; i++ {
		a.Add(float64(i % 2)) // variance 0.2525..., mean 0.5
	}
	if a.StdErr() <= 0 {
		t.Error("StdErr should be positive")
	}
	if math.Abs(a.CI95()-1.96*a.StdErr()) > 1e-12 {
		t.Error("CI95 should be 1.96*StdErr")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.Percentile(0.5) != 0 {
		t.Error("empty sample should give zeros")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Percentile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 = %v, want 95.05", got)
	}
	// Adding after a percentile query must re-sort.
	s.Add(0.5)
	if got := s.Percentile(0); got != 0.5 {
		t.Errorf("p0 after add = %v", got)
	}
}

func TestPercentileClamps(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	if s.Percentile(-0.5) != 1 || s.Percentile(2) != 3 {
		t.Error("out-of-range p should clamp")
	}
}

func TestRelativeIncrease(t *testing.T) {
	if got := RelativeIncrease(2, 1); math.Abs(got-100) > 1e-12 {
		t.Errorf("RelativeIncrease(2,1) = %v", got)
	}
	if got := RelativeIncrease(1, 1); got != 0 {
		t.Errorf("RelativeIncrease(1,1) = %v", got)
	}
	if got := RelativeIncrease(0.5, 1); math.Abs(got+50) > 1e-12 {
		t.Errorf("RelativeIncrease(0.5,1) = %v", got)
	}
	if !math.IsNaN(RelativeIncrease(1, 0)) {
		t.Error("zero base should give NaN")
	}
}

func TestAccumulatorString(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	if s := a.String(); s == "" {
		t.Error("String empty")
	}
}
