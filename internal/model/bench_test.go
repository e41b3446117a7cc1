package model

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// evaluateSink keeps the benchmarked report live.
var evaluateSink *Report

// BenchmarkEvaluate is one full report at the paper's Table-1 scale, over a
// placement with half of every page's references local: the per-page kernel
// run once per page, then the per-site load sums.
func BenchmarkEvaluate(b *testing.B) {
	w := workload.MustGenerate(workload.DefaultConfig(), 2026)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(2026))
	if err != nil {
		b.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		b.Fatal(err)
	}
	p := randomPlacement(w, rng.New(2026), 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		evaluateSink = Evaluate(env, p)
	}
}
