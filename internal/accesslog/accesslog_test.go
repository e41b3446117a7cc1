package accesslog

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 31)
}

// drawCounts samples page requests from the workload's true frequencies.
func drawCounts(w *workload.Workload, perSite int, seed uint64) Counts {
	s := rng.New(seed)
	counts := make(Counts)
	for i := range w.Sites {
		pages := w.Sites[i].Pages
		cum := make([]float64, len(pages))
		total := 0.0
		for idx, pid := range pages {
			total += float64(w.Pages[pid].Freq)
			cum[idx] = total
		}
		for n := 0; n < perSite; n++ {
			u := s.Float64() * total
			lo, hi := 0, len(cum)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			counts[pages[lo]]++
		}
	}
	return counts
}

func TestEstimateWorkloadRecoversFrequencies(t *testing.T) {
	w := testWorkload(t)
	counts := drawCounts(w, 20000, 7)
	est, err := EstimateWorkload(w, counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-site rates are preserved.
	for i := range est.Sites {
		sum := 0.0
		for _, pid := range est.Sites[i].Pages {
			sum += float64(est.Pages[pid].Freq)
		}
		if math.Abs(sum-float64(w.Config.PageRatePerSite)) > 1e-9 {
			t.Errorf("site %d estimated rate %v", i, sum)
		}
	}
	// With 20k samples/site the estimated hot flags recover the true hot
	// set almost exactly.
	agree, total := 0, 0
	for j := range w.Pages {
		total++
		if est.Pages[j].Hot == w.Pages[j].Hot {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("hot-set recovery %.2f, want ≥0.95", frac)
	}
	// Frequencies correlate: the known-hot pages must be estimated above
	// the known-cold ones on average.
	var hotMean, coldMean float64
	var hotN, coldN int
	for j := range w.Pages {
		if w.Pages[j].Hot {
			hotMean += float64(est.Pages[j].Freq)
			hotN++
		} else {
			coldMean += float64(est.Pages[j].Freq)
			coldN++
		}
	}
	if hotMean/float64(hotN) <= 2*coldMean/float64(coldN) {
		t.Error("estimated hot pages not clearly hotter than cold ones")
	}
}

func TestEstimateWorkloadSmoothsUnseen(t *testing.T) {
	w := testWorkload(t)
	// One single observation: everything else must still get a positive
	// frequency (Laplace smoothing).
	counts := Counts{w.Sites[0].Pages[0]: 1}
	est, err := EstimateWorkload(w, counts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range est.Pages {
		if est.Pages[j].Freq <= 0 {
			t.Fatalf("page %d got zero frequency", j)
		}
	}
}

func TestEstimateWorkloadValidation(t *testing.T) {
	w := testWorkload(t)
	if _, err := EstimateWorkload(w, Counts{workload.PageID(w.NumPages()): 1}); err == nil {
		t.Error("unknown page accepted")
	}
	if _, err := EstimateWorkload(w, Counts{0: -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestEstimateDoesNotMutateOriginal(t *testing.T) {
	w := testWorkload(t)
	before := w.Pages[0].Freq
	counts := drawCounts(w, 100, 9)
	if _, err := EstimateWorkload(w, counts); err != nil {
		t.Fatal(err)
	}
	if w.Pages[0].Freq != before {
		t.Error("EstimateWorkload mutated the input")
	}
}

func TestEWMADecay(t *testing.T) {
	e, err := NewEWMA(10) // half-life 10 s
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(1, 0)
	if w := e.Weight(1); math.Abs(w-1) > 1e-12 {
		t.Fatalf("fresh weight = %v", w)
	}
	e.Advance(10)
	if w := e.Weight(1); math.Abs(w-0.5) > 1e-9 {
		t.Errorf("weight after one half-life = %v, want 0.5", w)
	}
	e.Advance(20)
	if w := e.Weight(1); math.Abs(w-0.25) > 1e-9 {
		t.Errorf("weight after two half-lives = %v, want 0.25", w)
	}
}

func TestEWMABurstSurfaces(t *testing.T) {
	e, err := NewEWMA(60)
	if err != nil {
		t.Fatal(err)
	}
	// Page 1 accumulated slowly long ago; page 2 bursts now.
	for i := 0; i < 20; i++ {
		e.Observe(1, float64(i))
	}
	for i := 0; i < 10; i++ {
		e.Observe(2, 600+float64(i))
	}
	if e.Weight(2) <= e.Weight(1) {
		t.Errorf("burst (%.2f) did not overtake stale bulk (%.2f)", e.Weight(2), e.Weight(1))
	}
}

func TestEWMAValidation(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Error("zero half-life accepted")
	}
	if _, err := NewEWMA(-1); err == nil {
		t.Error("negative half-life accepted")
	}
}
