package repair

import (
	"testing"

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
