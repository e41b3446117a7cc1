package repair

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkRepairPlan measures the repair planner's hot path — the full
// Compute pipeline (re-home, adoption, per-page admission, survivor
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
	w := table1Workload()
	env, p := plannedEnv(b, w, 2000, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		down := workload.SiteID(n % w.NumSites())
		if _, err := Compute(env, p, []workload.SiteID{down}, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
