package repro

// Benchmark harness: one sub-benchmark per entry of the study table
// (BenchmarkStudy) plus kernel and ablation benches. The study benches run
// the experiment at a reduced-but-faithful scale per iteration so
// `go test -bench=.` finishes in minutes; the full Table-1 volume is
// exercised by BenchmarkSimulatePaperScale and cmd/replexp; the planner's
// own benches live in internal/core.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/workload"
)

// benchOpts is the per-iteration experiment scale for the figure benches.
func benchOpts() ExperimentOptions {
	o := experiments.Quick()
	o.Runs = 1
	o.RequestsPerSite = 100
	return o
}

// BenchmarkTable1WorkloadGen regenerates the paper's Table-1 workload
// (10 sites, 15,000 MOs, 400-800 pages/site) once per iteration.
func BenchmarkTable1WorkloadGen(b *testing.B) {
	cfg := DefaultWorkloadConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := GenerateWorkload(cfg, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if w.NumObjects() != 15000 {
			b.Fatal("wrong object count")
		}
	}
}

// BenchmarkStudy regenerates every entry of the study table — the paper's
// Table 1, Figures 1-3 and §5.2 claim, then the extension studies — one
// sub-benchmark each, named after the function that computes it.
func BenchmarkStudy(b *testing.B) {
	for _, s := range Studies {
		b.Run(s.Func, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Run(benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// paperScaleEnv builds one full Table-1 environment (shared across
// iterations — generation is benchmarked separately).
func paperScaleEnv(b *testing.B) *Env {
	b.Helper()
	w, err := GenerateWorkload(DefaultWorkloadConfig(), 2026)
	if err != nil {
		b.Fatal(err)
	}
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(2026))
	if err != nil {
		b.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkSimulatePaperScale simulates the paper's 10,000 requests per
// site over the Table-1 workload.
func BenchmarkSimulatePaperScale(b *testing.B) {
	env := paperScaleEnv(b)
	p, _, err := Plan(env, PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(env.W)
	pol := NewStaticPolicy("Proposed", p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(env.W, env.Est, pol, cfg, NewStream(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PageRT.N() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkSimulateQueueing measures the fluid-queue extension's overhead.
func BenchmarkSimulateQueueing(b *testing.B) {
	env := paperScaleEnv(b)
	p, _, err := Plan(env, PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(env.W)
	cfg.Queueing = true
	pol := NewStaticPolicy("Proposed", p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(env.W, env.Est, pol, cfg, NewStream(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitionSort quantifies PARTITION's decreasing-size
// visit order: it reports the objective achieved with and without the sort
// (lower is better) alongside the running time of the sorted variant.
func BenchmarkAblationPartitionSort(b *testing.B) {
	env := paperScaleEnv(b)
	var dSorted, dUnsorted float64
	for i := 0; i < b.N; i++ {
		pl := core.NewPlanner(env)
		pl.PartitionAll()
		dSorted = pl.D()
	}
	plU := core.NewPlanner(env)
	plU.UnsortedPartition = true
	for j := range env.W.Pages {
		plU.PartitionPage(workload.PageID(j))
	}
	dUnsorted = plU.D()
	b.ReportMetric(dSorted, "D-sorted")
	b.ReportMetric(dUnsorted, "D-unsorted")
	if dSorted > dUnsorted*1.2 {
		b.Fatalf("sorted partition much worse than unsorted: %v vs %v", dSorted, dUnsorted)
	}
}

// BenchmarkAblationNaiveSplits compares the planner's objective with the
// naive SizeThreshold and HalfSplit policies under the cost model.
func BenchmarkAblationNaiveSplits(b *testing.B) {
	env := paperScaleEnv(b)
	var dPlan float64
	for i := 0; i < b.N; i++ {
		p, _, err := Plan(env, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		dPlan = model.D(env, p)
	}
	dHalf := model.D(env, policies.HalfSplit(env.W).Placement())
	dThresh := model.D(env, policies.SizeThreshold(env.W, int64(500*KB)).Placement())
	b.ReportMetric(dPlan, "D-planned")
	b.ReportMetric(dHalf, "D-halfsplit")
	b.ReportMetric(dThresh, "D-sizethreshold")
	if dPlan > dHalf || dPlan > dThresh {
		b.Fatalf("planner (D=%v) lost to a naive split (half=%v, threshold=%v)", dPlan, dHalf, dThresh)
	}
}

// BenchmarkGreedyGap certifies PARTITION against the exact per-page
// optimum (bucket-quantized subset-sum DP) on the Table-1 workload,
// reporting the mean and max per-page optimality gap in percent.
func BenchmarkGreedyGap(b *testing.B) {
	env := paperScaleEnv(b)
	var mean, max float64
	for i := 0; i < b.N; i++ {
		pl := core.NewPlanner(env)
		pl.PartitionAll()
		mean, max = core.GreedyGap(pl)
	}
	b.ReportMetric(mean, "mean-gap-%")
	b.ReportMetric(max, "max-gap-%")
	if mean > 5 {
		b.Fatalf("mean optimality gap %.2f%% too large", mean)
	}
}
