package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchEnv builds a Table-1-scale environment once per benchmark (workload
// generation is benchmarked at the repo root, not here).
func benchEnv(b *testing.B) *model.Env {
	b.Helper()
	w, err := workload.Generate(workload.DefaultConfig(), 2026)
	if err != nil {
		b.Fatal(err)
	}
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(2026))
	if err != nil {
		b.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchWorkerCounts is the ladder the scaling benches sweep: sequential,
// a typical small pool, and everything the machine has.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkPlan measures the full planning pipeline — per-site PARTITION
// and restoration, off-loading coordinator — across worker counts on the
// Table-1 workload.
func BenchmarkPlan(b *testing.B) {
	env := benchEnv(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Plan(env, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanConstrainedWorkers runs both restoration loops (30 %
// storage, 50 % capacity) across worker counts — the restoration pool is
// per-site, so this exposes the site-count ceiling of phase 2.
func BenchmarkPlanConstrainedWorkers(b *testing.B) {
	env := benchEnv(b)
	env.Budgets = env.Budgets.Scale(env.W, 0.3, 0.5)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Plan(env, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanConstrained is the plan-constrained recipe of the benchmark
// harness on benchEnv's workload: 50 % storage, 70 % site capacity, the
// repository capped at 90 % of what the uncapped plan sends it, Refine on,
// Workers 1, so every phase of the paper's constrained path does real work.
// The probe plan that sizes the cap also builds the workload's site
// indexes, as the harness's set-up does, so the timed plans are warm.
func BenchmarkPlanConstrained(b *testing.B) {
	env := benchEnv(b)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.7)
	probe, _, err := Plan(env, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	env.Budgets.RepoCapacity = units.ReqPerSec(0.9 * float64(model.RepoLoad(env, probe)))
	opts := Options{Workers: 1, Refine: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Plan(env, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionParallel isolates the PARTITION phase, fanned out over
// sites.
func BenchmarkPartitionParallel(b *testing.B) {
	env := benchEnv(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl := NewPlanner(env)
				pl.PartitionParallel(workers, nil)
			}
		})
	}
}

// BenchmarkOffloadParallel isolates the negotiation with the sites
// accepting concurrently in place, repository capped at 60 % of the
// pre-offload load so several rounds of AcceptWorkload run.
func BenchmarkOffloadParallel(b *testing.B) {
	env := benchEnv(b)
	base := NewPlanner(env)
	base.PartitionParallel(runtime.NumCPU(), nil)
	for i := range env.W.Sites {
		base.RestoreStorageSite(workload.SiteID(i))
		base.RestoreProcessingSite(workload.SiteID(i))
	}
	pre := float64(base.RepoLoad())
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env.Budgets.RepoCapacity = model.Infinite()
				pl := NewPlanner(env)
				pl.PartitionParallel(runtime.NumCPU(), nil)
				for s := range env.W.Sites {
					pl.RestoreStorageSite(workload.SiteID(s))
					pl.RestoreProcessingSite(workload.SiteID(s))
				}
				env.Budgets.RepoCapacity = units.ReqPerSec(pre * 0.6)
				b.StartTimer()
				st := pl.OffloadParallel(nil, workers, nil)
				if !st.Restored {
					b.Fatal("offload failed")
				}
			}
			env.Budgets.RepoCapacity = model.Infinite()
		})
	}
}

// BenchmarkPlanSweep plans Figure 3's grid — ten local capacities, each
// with the repository capped at 90, 70 and 50 % of its probe plan's load —
// over one Table-1 workload: as thirty from-scratch core.Plan calls, from
// one Partitioned (its Partition call included), and through one Sweep of
// a Partitioned walked from the loosest capacity down, the way a figure run
// plans. The caps are sized outside the timer.
func BenchmarkPlanSweep(b *testing.B) {
	env := benchEnv(b)
	var grid []*model.Env
	for c := 1; c <= 10; c++ {
		probeEnv := *env
		probeEnv.Budgets = env.Budgets.Scale(env.W, 1, float64(c)/10)
		probeEnv.Budgets.RepoCapacity = model.Infinite()
		probe, _, err := Plan(&probeEnv, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.9, 0.7, 0.5} {
			capped := probeEnv
			capped.Budgets.RepoCapacity = units.ReqPerSec(float64(model.RepoLoad(&probeEnv, probe)) * frac)
			grid = append(grid, &capped)
		}
	}
	opts := Options{Workers: 1}
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range grid {
				if _, _, err := Plan(e, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pt := Partition(env, opts)
			for _, e := range grid {
				if _, _, err := pt.Plan(e, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw := Partition(env, opts).Sweep()
			for n := len(grid) - 1; n >= 0; n-- {
				if _, _, err := sw.Plan(grid[n], opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
