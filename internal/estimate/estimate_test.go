package estimate

import (
	"bytes"
	"math"
	"sort"
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
			k := sort.SearchFloat64s(cum, s.Float64()*total)
			t += window / float64(perSite)
			obs = append(obs, observation{workload.SiteID(i), pages[k], t})
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
	for _, se := range e.Snapshot(1).Sites {
		for _, pw := range se.Pages {
			if pw.Weight != 0 {
				t.Fatalf("out-of-range observation leaked into site %d page %d: weight %v", se.Site, pw.Page, pw.Weight)
			}
		}
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

// drawCounts samples page requests from the workload's true frequencies.
func drawCounts(w *workload.Workload, perSite int, seed uint64) Counts {
	counts := make(Counts)
	for _, o := range drawObservations(w, perSite, 0, seed) {
		counts[o.page]++
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

// weightOf reads one page's weight out of a snapshot.
func weightOf(t *testing.T, s *Snapshot, site workload.SiteID, pid workload.PageID) float64 {
	t.Helper()
	for _, pw := range s.Sites[site].Pages {
		if pw.Page == pid {
			return pw.Weight
		}
	}
	t.Fatalf("page %d not hosted by site %d", pid, site)
	return 0
}

func TestEWMADecay(t *testing.T) {
	w := testWorkload(t)
	e, err := New(w, Config{HalfLife: 10}) // half-life 10 s
	if err != nil {
		t.Fatal(err)
	}
	pid := w.Sites[0].Pages[1]
	e.Observe(0, pid, 0)
	if got := weightOf(t, e.Snapshot(0), 0, pid); math.Abs(got-1) > 1e-12 {
		t.Fatalf("fresh weight = %v", got)
	}
	if got := weightOf(t, e.Snapshot(10), 0, pid); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("weight after one half-life = %v, want 0.5", got)
	}
	if got := weightOf(t, e.Snapshot(20), 0, pid); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("weight after two half-lives = %v, want 0.25", got)
	}
}

func TestEWMABurstSurfaces(t *testing.T) {
	w := testWorkload(t)
	e, err := New(w, Config{HalfLife: 60})
	if err != nil {
		t.Fatal(err)
	}
	// One page accumulated slowly long ago; another bursts now.
	stale, burst := w.Sites[0].Pages[1], w.Sites[0].Pages[2]
	for i := 0; i < 20; i++ {
		e.Observe(0, stale, float64(i))
	}
	for i := 0; i < 10; i++ {
		e.Observe(0, burst, 600+float64(i))
	}
	s := e.Snapshot(609)
	if b, st := weightOf(t, s, 0, burst), weightOf(t, s, 0, stale); b <= st {
		t.Errorf("burst (%.2f) did not overtake stale bulk (%.2f)", b, st)
	}
}

// refEWMA is the map-based decayed counter the per-site shards replaced,
// kept as the reference their weights must match bit for bit: one per
// site, it counts every page it is shown, hosted or not.
type refEWMA struct {
	halfLife, now float64
	weights       map[workload.PageID]float64
	updated       map[workload.PageID]float64
}

func newRefEWMA(halfLife float64) *refEWMA {
	return &refEWMA{halfLife: halfLife, weights: map[workload.PageID]float64{}, updated: map[workload.PageID]float64{}}
}

func (e *refEWMA) observe(pid workload.PageID, t float64) {
	e.advance(t)
	e.weights[pid] = e.weight(pid) + 1
	e.updated[pid] = e.now
}

func (e *refEWMA) weight(pid workload.PageID) float64 {
	w, ok := e.weights[pid]
	if !ok {
		return 0
	}
	dt := e.now - e.updated[pid]
	if dt <= 0 {
		return w
	}
	return w * math.Exp2(-dt/e.halfLife)
}

func (e *refEWMA) advance(t float64) {
	if t > e.now {
		e.now = t
	}
}

// TestSnapshotMatchesMapReference drives the estimator and the reference
// with one seeded stream — runs of equal timestamps, timestamps that step
// backwards, pages the site does not host, and snapshots taken mid-stream
// (which advance the clocks) — and requires every snapshot weight to equal
// the reference's under math.Float64bits.
func TestSnapshotMatchesMapReference(t *testing.T) {
	w := testWorkload(t)
	for _, seed := range []uint64{1, 2, 3} {
		e, err := New(w, Config{HalfLife: 7})
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*refEWMA, w.NumSites())
		for i := range refs {
			refs[i] = newRefEWMA(7)
		}
		s := rng.New(seed)
		clock := 0.0
		check := func(at float64) {
			t.Helper()
			snap := e.Snapshot(at)
			for i, se := range snap.Sites {
				refs[i].advance(at)
				for _, pw := range se.Pages {
					if want := refs[i].weight(pw.Page); math.Float64bits(pw.Weight) != math.Float64bits(want) {
						t.Fatalf("seed %d at %v: site %d page %d weight %v, reference %v", seed, at, i, pw.Page, pw.Weight, want)
					}
				}
			}
		}
		for n := 0; n < 20000; n++ {
			switch u := s.Float64(); {
			case u < 0.5: // equal timestamps: the clock stands still
			case u < 0.6:
				clock -= s.Uniform(0, 5) // out of order
			default:
				clock += s.Uniform(0, 3)
			}
			site := workload.SiteID(s.IntN(w.NumSites()))
			pid := workload.PageID(s.IntN(w.NumPages())) // off-host most of the time
			if s.Float64() < 0.5 {
				pages := w.Sites[site].Pages
				pid = pages[s.IntN(len(pages))]
			}
			e.Observe(site, pid, clock)
			refs[site].observe(pid, clock)
			if n%997 == 0 {
				check(clock - s.Uniform(-2, 2))
			}
		}
		check(clock + 10)
	}
}

// TestShareVectorsMatchReference holds FreqVector and BaselineVector, which
// now share one normalization, bit-equal to the two loops they replaced.
// Five sites, so dividing by the site count rounds.
func TestShareVectorsMatchReference(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Sites = 5
	w := workload.MustGenerate(cfg, 31)
	e, err := New(w, Config{HalfLife: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, drawObservations(w, 500, 50, 19))
	snap := e.Snapshot(50)
	inv := 1 / float64(w.NumSites())

	want := make([]float64, w.NumPages())
	for _, se := range snap.Sites {
		var total float64
		for _, pw := range se.Pages {
			total += pw.Weight
		}
		for _, pw := range se.Pages {
			want[pw.Page] = pw.Weight / total * inv
		}
	}
	base := make([]float64, w.NumPages())
	for i := range w.Sites {
		var total float64
		for _, pid := range w.Sites[i].Pages {
			total += float64(w.Pages[pid].Freq)
		}
		for _, pid := range w.Sites[i].Pages {
			base[pid] = float64(w.Pages[pid].Freq) / total * inv
		}
	}
	for name, pair := range map[string][2][]float64{
		"snapshot": {snap.FreqVector(w.NumPages()), want},
		"baseline": {BaselineVector(w), base},
	} {
		for j := range pair[1] {
			if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
				t.Fatalf("%s share of page %d = %v, reference %v", name, j, pair[0][j], pair[1][j])
			}
		}
	}
}
