package httpsim

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

func simEnv(t *testing.T, seed uint64) (*workload.Workload, *netsim.Estimates) {
	t.Helper()
	w := workload.MustGenerate(workload.SmallConfig(), seed)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w, est
}

func TestRunBasic(t *testing.T) {
	w, est := simEnv(t, 41)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 200
	res, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.PageRT.N(), int64(200*w.NumSites()); got != want {
		t.Errorf("page samples = %d, want %d", got, want)
	}
	if res.PageRT.Mean() <= 0 {
		t.Error("mean page RT not positive")
	}
	if res.Policy != "Local" {
		t.Errorf("policy name %q", res.Policy)
	}
	// All-local policy issues no repository requests.
	if res.RepoRequests != 0 {
		t.Errorf("Local policy sent %d repo requests", res.RepoRequests)
	}
	if res.LocalRequests <= int64(200*w.NumSites()) {
		t.Error("local requests should exceed one per view (HTML + objects)")
	}
}

func TestRunRemotePolicy(t *testing.T) {
	w, est := simEnv(t, 42)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 200
	res, err := Run(w, est, policies.NewRemote(w), cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Remote policy: one local HTML request per view, everything else repo.
	if got, want := res.LocalRequests, int64(200*w.NumSites()); got != want {
		t.Errorf("local requests = %d, want %d (HTML only)", got, want)
	}
	if res.RepoRequests == 0 {
		t.Error("remote policy sent no repo requests")
	}
}

func TestRunDeterministic(t *testing.T) {
	w, est := simEnv(t, 43)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 150
	run := func() float64 {
		res, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return res.PageRT.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs differ: %v vs %v", a, b)
	}
}

func TestRunSequentialMatchesParallel(t *testing.T) {
	w, est := simEnv(t, 44)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 150
	cfg.Workers = 1
	seq, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.PageRT.Mean()-par.PageRT.Mean()) > 1e-12 {
		t.Errorf("worker counts changed results: %v vs %v", seq.PageRT.Mean(), par.PageRT.Mean())
	}
	if seq.LocalRequests != par.LocalRequests || seq.RepoRequests != par.RepoRequests {
		t.Error("request counters differ across worker counts")
	}
}

func TestPoliciesSeeSameTraffic(t *testing.T) {
	// The same seed must produce identical page sequences and perturbations
	// for different policies: with an identity perturbation and fixed
	// estimates, the Local policy's local chain equals the Remote policy's
	// local HTML chain plus the MO bytes — verify via request counts, which
	// depend only on the traffic.
	w, est := simEnv(t, 45)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 100
	l, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(w, est, policies.NewRemote(w), cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if l.LocalRequests+l.RepoRequests != r.LocalRequests+r.RepoRequests {
		t.Errorf("total request counts differ: %d vs %d",
			l.LocalRequests+l.RepoRequests, r.LocalRequests+r.RepoRequests)
	}
	if l.OptPerView.N() != r.OptPerView.N() {
		t.Error("view counts differ across policies")
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	// Table-1 rates make the repository ~5× slower per byte; the Remote
	// policy must lose clearly (the paper reports +335 % vs +23.8 %).
	w, est := simEnv(t, 46)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 300
	l, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(w, est, policies.NewRemote(w), cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if r.PageRT.Mean() < 2*l.PageRT.Mean() {
		t.Errorf("Remote mean %v not ≫ Local mean %v", r.PageRT.Mean(), l.PageRT.Mean())
	}
}

func TestIdentityPerturbationMatchesModel(t *testing.T) {
	// With NoPerturbConfig the simulated mean page time must equal the
	// cost model's frequency-weighted prediction (same placement, same
	// estimates), up to sampling noise of the page mixture.
	w, est := simEnv(t, 47)
	cfg := DefaultConfig(w)
	cfg.Perturb = netsim.NoPerturbConfig()
	cfg.RequestsPerSite = 4000

	p := model.AllLocal(w)
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, est, policies.NewStatic("ours", p), cfg, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	// Model prediction: Σ f·Time / Σ f (mean over views).
	var num, den float64
	for j := range w.Pages {
		f := float64(w.Pages[j].Freq)
		num += f * float64(model.PageTime(env, p, workload.PageID(j)))
		den += f
	}
	want := num / den
	got := res.PageRT.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("simulated mean %v deviates from model %v by >5%%", got, want)
	}
}

func TestQueueingAddsDelay(t *testing.T) {
	w, est := simEnv(t, 48)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 500
	base, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Queueing = true
	queued, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if queued.PageRT.Mean() < base.PageRT.Mean() {
		t.Errorf("queueing decreased mean RT: %v < %v", queued.PageRT.Mean(), base.PageRT.Mean())
	}
}

func TestRetainSamples(t *testing.T) {
	w, est := simEnv(t, 49)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 100
	cfg.RetainSamples = true
	res, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples.N() != int(res.PageRT.N()) {
		t.Errorf("retained %d samples for %d views", res.Samples.N(), res.PageRT.N())
	}
	if res.Samples.Percentile(0.99) < res.Samples.Median() {
		t.Error("p99 below median")
	}
}

func TestRunValidation(t *testing.T) {
	w, est := simEnv(t, 50)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 0
	if _, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(1)); err == nil {
		t.Error("zero requests accepted")
	}
	cfg = DefaultConfig(w)
	cfg.Perturb.LocalRate = nil
	if _, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(1)); err == nil {
		t.Error("invalid perturb config accepted")
	}
	bad := &netsim.Estimates{Sites: est.Sites[:1]}
	if _, err := Run(w, bad, policies.NewLocal(w), DefaultConfig(w), rng.New(1)); err == nil {
		t.Error("estimate count mismatch accepted")
	}
}

func TestCompositeMean(t *testing.T) {
	r := &Result{alpha1: 2, alpha2: 1}
	r.PageRT.Add(9)
	r.OptPerView.Add(3)
	if got, want := r.CompositeMean(), (2*9.0+1*3.0)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("CompositeMean = %v, want %v", got, want)
	}
	z := &Result{}
	z.PageRT.Add(5)
	if z.CompositeMean() != 5 {
		t.Error("zero weights should fall back to page mean")
	}
}

func TestFluidQueue(t *testing.T) {
	q := newFluidQueue(10) // 0.1 s per request
	if d := q.delay(0, 1); d != 0 {
		t.Errorf("first arrival waited %v", d)
	}
	// Immediately after: backlog 0.1 s.
	if d := q.delay(0, 1); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("second arrival waited %v, want 0.1", d)
	}
	// After a long gap the backlog drains fully.
	if d := q.delay(100, 1); d != 0 {
		t.Errorf("post-drain arrival waited %v", d)
	}
	// Infinite capacity: never any delay.
	inf := newFluidQueue(0)
	for i := 0; i < 10; i++ {
		if inf.delay(float64(i), 100) != 0 {
			t.Fatal("infinite-capacity queue delayed")
		}
	}
}

func TestRemoteRedirectPenaltyPerGET(t *testing.T) {
	// With an identity perturbation and the Remote policy, the penalty
	// adds exactly penalty×(compulsory count) to every page's remote
	// chain (which always dominates at Table-1 rates), so the mean page
	// RT shifts by penalty×E[compulsory].
	w, est := simEnv(t, 51)
	cfg := DefaultConfig(w)
	cfg.Perturb = netsim.NoPerturbConfig()
	cfg.RequestsPerSite = 400

	base, err := Run(w, est, policies.NewRemote(w), cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg.RemoteRedirectPenalty = 2
	pen, err := Run(w, est, policies.NewRemote(w), cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	shift := pen.PageRT.Mean() - base.PageRT.Mean()
	// Expected shift: 2s × mean compulsory count over the drawn pages.
	// Approximate with the workload's frequency-weighted mean.
	var num, den float64
	for j := range w.Pages {
		f := float64(w.Pages[j].Freq)
		num += f * float64(len(w.Pages[j].Compulsory))
		den += f
	}
	want := 2 * num / den
	if math.Abs(shift-want)/want > 0.1 {
		t.Errorf("penalty shift %.2fs, want ≈%.2fs", shift, want)
	}
}

func TestLRUParallelSites(t *testing.T) {
	// The LRU baseline's per-site state must be safe under the simulator's
	// cross-site concurrency (exercised under -race in CI).
	w, est := simEnv(t, 52)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 150
	cfg.Workers = 4
	cfg.Warmup = true
	lru, err := policies.NewLRU(w, model.FullBudgets(w), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, est, lru, cfg, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRT.N() != int64(150*w.NumSites()) {
		t.Errorf("views = %d", res.PageRT.N())
	}
	// Warm full-budget LRU serves everything locally after warmup.
	if res.RepoRequests != 0 {
		t.Errorf("warm full-size LRU sent %d repo requests", res.RepoRequests)
	}
}

// TestSitePageRTIsEachSitesViews holds the per-site breakdown to its
// definition: SitePageRT[i] is an accumulator fed site i's page times
// alone, in view order — the retained samples, which run site by site —
// with and without the warm-up pass and the outage mode.
func TestSitePageRTIsEachSitesViews(t *testing.T) {
	w, est := simEnv(t, 53)
	for _, c := range []struct {
		name           string
		warmup, outage bool
	}{{"plain", false, false}, {"warmup", true, false}, {"outage", false, true}, {"warmup+outage", true, true}} {
		cfg := DefaultConfig(w)
		cfg.RequestsPerSite = 120
		cfg.RetainSamples = true
		cfg.Warmup = c.warmup
		if c.outage {
			cfg.Outage = OutageConfig{Enabled: true, Availability: 0.6, FailoverDelay: 0.05}
		}
		res, err := Run(w, est, policies.NewLocal(w), cfg, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		if c.outage && res.DegradedViews == 0 {
			t.Fatalf("%s: no degraded views", c.name)
		}
		xs := res.Samples.Values()
		if len(xs) != cfg.RequestsPerSite*w.NumSites() {
			t.Fatalf("%s: %d samples for %d sites of %d views", c.name, len(xs), w.NumSites(), cfg.RequestsPerSite)
		}
		for i := range w.Sites {
			var want stats.Accumulator
			for _, x := range xs[i*cfg.RequestsPerSite : (i+1)*cfg.RequestsPerSite] {
				want.Add(x)
			}
			if res.SitePageRT[i] != want {
				t.Errorf("%s: site %d page times %+v, its views give %+v", c.name, i, res.SitePageRT[i], want)
			}
		}
	}
}
