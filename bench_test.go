package repro

// Benchmark harness: one sub-benchmark per entry of the study table
// (BenchmarkStudy) plus the workload-generation and greedy-gap kernels. The
// study benches run the experiment at a reduced-but-faithful scale per
// iteration so `go test -bench=.` finishes in minutes; the full Table-1
// volume is exercised by internal/httpsim's BenchmarkSimulatePaperScale and
// cmd/replexp; the planner's own benches live in internal/core.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
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
