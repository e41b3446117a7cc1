package httpsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/workload"
)

// paperScale builds the Table-1 workload, its estimates and the proposed
// policy's unconstrained plan: the paper's 10 sites × 10,000 requests.
func paperScale(b *testing.B) (*workload.Workload, *netsim.Estimates, Decider) {
	b.Helper()
	w := workload.MustGenerate(workload.DefaultConfig(), 2026)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(2026))
	if err != nil {
		b.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return w, est, policies.NewStatic("Proposed", p)
}

// benchRun times Run — draw and decide — over fresh traffic per iteration.
func benchRun(b *testing.B, set func(*Config)) {
	w, est, pol := paperScale(b)
	cfg := DefaultConfig(w)
	set(&cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(w, est, pol, cfg, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PageRT.N() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkSimulatePaperScale simulates the paper's 10,000 requests per
// site over the Table-1 workload.
func BenchmarkSimulatePaperScale(b *testing.B) { benchRun(b, func(*Config) {}) }

// BenchmarkSimulateQueueing measures the fluid-queue extension's overhead.
func BenchmarkSimulateQueueing(b *testing.B) {
	benchRun(b, func(cfg *Config) { cfg.Queueing = true })
}

// BenchmarkReplay times the deciding half alone: the traffic is recorded
// outside the timer, so SimulatePaperScale minus this is the cost of
// drawing — what a study saves per policy by replaying one recording.
func BenchmarkReplay(b *testing.B) {
	w, est, pol := paperScale(b)
	benchReplay(b, w, est, pol)
}

// BenchmarkReplayLRU is BenchmarkReplay for the stateful path: the LRU
// baseline at half the storage, whose Compulsory serves each object through
// its cache. One instance serves every iteration, so after the first its
// caches are warm — the state a Warmup pass leaves.
func BenchmarkReplayLRU(b *testing.B) {
	w, est, _ := paperScale(b)
	pol, err := policies.NewLRU(w, model.FullBudgets(w).Scale(w, 0.5, 1), 1)
	if err != nil {
		b.Fatal(err)
	}
	benchReplay(b, w, est, pol)
}

// benchReplay times Replay of one recording of the paper-scale traffic.
func benchReplay(b *testing.B, w *workload.Workload, est *netsim.Estimates, pol Decider) {
	cfg := DefaultConfig(w)
	tr, err := Record(w, est, cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(w, tr, pol, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
