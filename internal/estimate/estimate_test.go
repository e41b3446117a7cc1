package estimate

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

func testWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 31)
}

// observation is one (site, page, t) access event.
type observation struct {
	site workload.SiteID
	page workload.PageID
	t    float64
}

// drawObservations samples a deterministic request stream from the
// workload's true frequencies: perSite requests per site, timestamps
// spread uniformly over window seconds.
func drawObservations(w *workload.Workload, perSite int, window float64, seed uint64) []observation {
	s := rng.New(seed)
	var obs []observation
	for i := range w.Sites {
		pages := w.Sites[i].Pages
		cum := make([]float64, len(pages))
		total := 0.0
		for idx, pid := range pages {
			total += float64(w.Pages[pid].Freq)
			cum[idx] = total
		}
		t := 0.0
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
			t += window / float64(perSite)
			obs = append(obs, observation{workload.SiteID(i), pages[lo], t})
		}
	}
	return obs
}

func feed(e *Estimator, obs []observation) {
	for _, o := range obs {
		e.Observe(o.site, o.page, o.t)
	}
}

func TestEstimatorTracksObservedShares(t *testing.T) {
	w := testWorkload(t)
	t.Run("exact", func(t *testing.T) {
		e, err := New(w, Config{HalfLife: 1e9}) // effectively no decay: weights ≈ raw counts
		if err != nil {
			t.Fatal(err)
		}
		obs := drawObservations(w, 20000, 100, 7)
		feed(e, obs)
		got := e.Snapshot(100).FreqVector(w.NumPages())
		want := BaselineVector(w)
		l1 := 0.0
		for i := range got {
			l1 += math.Abs(got[i] - want[i])
		}
		if l1 > 0.25 {
			t.Errorf("estimated shares diverge from true frequencies: L1 = %.3f", l1)
		}
	})
}

func TestSnapshotDeterminism(t *testing.T) {
	// Same request stream ⇒ byte-identical snapshots.
	w := testWorkload(t)
	t.Run("exact", func(t *testing.T) {
		obs := drawObservations(w, 5000, 200, 11)
		var encs [][]byte
		for rep := 0; rep < 2; rep++ {
			e, err := New(w, Config{HalfLife: 30})
			if err != nil {
				t.Fatal(err)
			}
			feed(e, obs)
			enc, err := e.Snapshot(200).Encode()
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc)
		}
		if !bytes.Equal(encs[0], encs[1]) {
			t.Fatal("same request stream produced different snapshot bytes")
		}
	})
}

func TestEstimatorConcurrentObserve(t *testing.T) {
	// Concurrent writers across sites and within one site. Within a batch
	// every observation carries the same timestamp, so weight updates
	// commute and the result must equal sequential ingestion exactly.
	w := testWorkload(t)
	build := func() *Estimator {
		e, err := New(w, Config{HalfLife: 60})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	obs := drawObservations(w, 2000, 0, 13) // window 0 ⇒ equal timestamps per site... spread below
	for i := range obs {
		obs[i].t = float64(1 + i%5) // five fixed batch timestamps, reused across goroutines
	}
	// Group by timestamp so concurrent ingestion never interleaves
	// different times at one site out of order.
	batches := make(map[float64][]observation)
	for _, o := range obs {
		batches[o.t] = append(batches[o.t], o)
	}

	seq := build()
	for bt := 1; bt <= 5; bt++ {
		for _, o := range batches[float64(bt)] {
			seq.Observe(o.site, o.page, o.t)
		}
	}

	conc := build()
	for bt := 1; bt <= 5; bt++ {
		batch := batches[float64(bt)]
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(batch); i += 8 {
					conc.Observe(batch[i].site, batch[i].page, batch[i].t)
				}
			}(g)
		}
		wg.Wait()
	}

	a, err := seq.Snapshot(6).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := conc.Snapshot(6).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("concurrent ingestion diverged from sequential ingestion")
	}
}

func TestEstimatorIgnoresOutOfRange(t *testing.T) {
	w := testWorkload(t)
	e, err := New(w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(-1, 0, 1)
	e.Observe(workload.SiteID(w.NumSites()), 0, 1)
	e.Observe(0, -1, 1)
	e.Observe(0, workload.PageID(w.NumPages()), 1)
	if got := len(e.Snapshot(1).Counts()); got != 0 {
		t.Fatalf("out-of-range observations leaked into counts: %d entries", got)
	}
}

func TestDetectorHysteresis(t *testing.T) {
	base := []float64{0.5, 0.3, 0.2, 0, 0}
	d, err := NewDetector(base, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// In-tolerance check: no trigger, stays armed.
	dec, err := d.Check([]float64{0.48, 0.32, 0.2, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trigger || !d.Armed() {
		t.Fatalf("small drift should not trigger: %+v", dec)
	}
	// Big shift: triggers once...
	shifted := []float64{0, 0, 0.2, 0.5, 0.3}
	dec, err = d.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Trigger {
		t.Fatalf("large drift should trigger: %+v", dec)
	}
	// ...and not again while the signal persists (hysteresis).
	dec, err = d.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trigger {
		t.Fatalf("sustained drift re-triggered without clearing: %+v", dec)
	}
	if !dec.Exceeded {
		t.Fatalf("sustained drift should still report Exceeded: %+v", dec)
	}
	// Signal clears below clearL1 → re-arms → next burst triggers again.
	if dec, err = d.Check(base); err != nil || dec.Trigger {
		t.Fatalf("clearing check misbehaved: %+v, %v", dec, err)
	}
	if !d.Armed() {
		t.Fatal("detector did not re-arm after the signal cleared")
	}
	dec, err = d.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Trigger {
		t.Fatalf("re-armed detector should trigger on the next burst: %+v", dec)
	}

	// Rebase onto the shifted vector: the same traffic is now in-plan.
	d.Rebase(shifted)
	dec, err = d.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trigger || dec.Exceeded {
		t.Fatalf("rebased detector should be quiet on its own baseline: %+v", dec)
	}
}

func TestDetectorTopKChurn(t *testing.T) {
	// Mass moves between a few head pages only: L1 stays under its trigger
	// but the top-k membership churns, which must trigger on its own.
	base := make([]float64, 100)
	cur := make([]float64, 100)
	for i := 0; i < 100; i++ {
		base[i] = 0.008
		cur[i] = 0.008
	}
	for i := 0; i < topK; i++ {
		base[i] += 0.01   // head pages 0-9
		cur[i+50] += 0.01 // head moved to 50-59
	}
	d, err := NewDetector(base, DetectorConfig{TriggerTopK: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := d.Check(cur)
	if err != nil {
		t.Fatal(err)
	}
	if dec.L1 >= triggerL1 {
		t.Fatalf("L1 %.3f reaches its own trigger; the case tests churn alone", dec.L1)
	}
	if dec.TopKChurn < 0.99 {
		t.Fatalf("expected full top-k churn, got %.2f", dec.TopKChurn)
	}
	if !dec.Trigger {
		t.Fatalf("top-k churn should trigger independently of L1: %+v", dec)
	}
}

// TestDetectorTiedBaselineIsNotChurn: at Table-1 scale the baseline's top
// pages share one frequency, so its top-k is an arbitrary pick from a tied
// group. An estimate that is the baseline plus ±1 % noise reorders that
// group; it has not drifted and must not trigger.
func TestDetectorTiedBaselineIsNotChurn(t *testing.T) {
	const pages, tied = 420, 42
	base := make([]float64, pages)
	for i := range base {
		base[i] = 0.4 / (pages - tied) // the cold tail
		if i < tied {
			base[i] = 0.6 / tied // the hot set, all tied
		}
	}
	s := rng.New(5)
	for check := 0; check < 20; check++ {
		d, err := NewDetector(base, DetectorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cur := make([]float64, pages)
		for i, b := range base {
			cur[i] = b * s.Uniform(0.99, 1.01)
		}
		dec, err := d.Check(cur)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Exceeded {
			t.Fatalf("check %d: noise around a tied baseline exceeded a trigger: %+v", check, dec)
		}
	}
}

func TestDetectorLengthMismatch(t *testing.T) {
	d, err := NewDetector([]float64{1, 0}, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Check([]float64{1}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := NewDetector(nil, DetectorConfig{}); err == nil {
		t.Fatal("empty baseline not rejected")
	}
}

func TestSnapshotEstimateWorkload(t *testing.T) {
	w := testWorkload(t)
	e, err := New(w, Config{HalfLife: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, drawObservations(w, 10000, 100, 17))
	est, err := e.Snapshot(100).EstimateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-site aggregate rate is preserved by the re-estimate.
	for i := range est.Sites {
		sum := 0.0
		for _, pid := range est.Sites[i].Pages {
			sum += float64(est.Pages[pid].Freq)
		}
		rate := float64(w.Config.PageRatePerSite)
		if math.Abs(sum-rate) > rate*1e-6 {
			t.Fatalf("site %d rate %.3f, want %.3f", i, sum, rate)
		}
	}
}

func TestFreqVectorSumsToOne(t *testing.T) {
	w := testWorkload(t)
	e, err := New(w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, drawObservations(w, 1000, 10, 3))
	for name, v := range map[string][]float64{
		"estimated": e.Snapshot(10).FreqVector(w.NumPages()),
		"baseline":  BaselineVector(w),
	} {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s vector sums to %.9f, want 1", name, sum)
		}
	}
}
