package repair

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// BenchmarkRepairPlan measures the repair planner's hot path — the full
// Compute pipeline (re-home, seeded adoption, per-page admission, survivor
// restoration, off-loading) for a single-site outage.
func BenchmarkRepairPlan(b *testing.B) {
	env, p := scaffold(b, 42)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Compute(env, p, []workload.SiteID{0}, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairPlanParallel is the same outage repaired with the full
// worker pool — the delta against BenchmarkRepairPlan is what the
// restoration/off-loading parallelism buys on a repair.
func BenchmarkRepairPlanParallel(b *testing.B) {
	env, p := scaffold(b, 42)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Compute(env, p, []workload.SiteID{0}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairPlanTable1 is Compute at the paper's Table-1 scale (10
// sites, 15,000 objects), on the workload the benchmark's control-cycles
// repairs: per-site page and pool counts pinned at the midpoints of their
// ranges, the network drawn from a fixed seed, full budgets. Each
// iteration takes the next site down, as the benchmark's cycles do.
func BenchmarkRepairPlanTable1(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.PagesPerSiteMin = (cfg.PagesPerSiteMin + cfg.PagesPerSiteMax) / 2
	cfg.PagesPerSiteMax = cfg.PagesPerSiteMin
	cfg.ObjectsPerSite = (cfg.ObjectsPerSite + cfg.ObjectsPerMax) / 2
	cfg.ObjectsPerMax = cfg.ObjectsPerSite
	w := workload.MustGenerate(cfg, 1)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(2000))
	if err != nil {
		b.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		down := workload.SiteID(n % w.NumSites())
		if _, err := Compute(env, p, []workload.SiteID{down}, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
