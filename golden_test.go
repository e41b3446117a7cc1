package repro

// Characterization ("golden") tests: they pin exact numeric outputs for a
// fixed seed so that *unintentional* behavior changes — a reordered loop, a
// different tie-break, an accidental extra RNG draw — are caught
// immediately. An intentional algorithm change may update the constants,
// with the diff making the behavioral shift explicit in review. Everything
// here is deterministic by construction (seeded math/rand, no map-order
// dependence in any numeric path).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

const goldenTol = 1e-9 // relative

func relClose(a, b float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(a-b)/math.Abs(b) <= goldenTol
}

func goldenEnv(t *testing.T) *Env {
	t.Helper()
	w := MustGenerateWorkload(SmallWorkloadConfig(), 424242)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(424242))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestGoldenWorkloadShape(t *testing.T) {
	env := goldenEnv(t)
	w := env.W
	if got := w.NumPages(); got != 197 {
		t.Errorf("pages = %d, want 197 (generator behavior changed)", got)
	}
	var bytes ByteSize
	for _, o := range w.Objects {
		bytes += o.Size
	}
	if got := int64(bytes); got != 505986835 {
		t.Errorf("total object bytes = %d, want 505986835 (size sampling changed)", got)
	}
}

func TestGoldenPlanObjective(t *testing.T) {
	env := goldenEnv(t)
	_, res, err := Plan(env, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const wantD = 28743.268873523462
	if !relClose(res.D, wantD) {
		t.Errorf("plan D = %.12g, want %.12g (planner behavior changed)", res.D, wantD)
	}
}

func TestGoldenSimulation(t *testing.T) {
	env := goldenEnv(t)
	p, _, err := Plan(env, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(env.W)
	cfg.RequestsPerSite = 200
	res, err := Simulate(env.W, env.Est, NewStaticPolicy("g", p), cfg, NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	const wantMean = 1283.4768792205
	if !relClose(res.PageRT.Mean(), wantMean) {
		t.Errorf("simulated mean = %.12g, want %.12g (simulator behavior changed)", res.PageRT.Mean(), wantMean)
	}
}

// goldenConstrainedEnv is goldenEnv under the plan-constrained benchmark
// recipe: 50 % storage, 70 % site capacity, and the repository capped at
// 90 % of what the uncapped plan sends it — so storage restoration, the
// refine sweep and the off-loading negotiation all do real work.
func goldenConstrainedEnv(t *testing.T) *Env {
	t.Helper()
	env := goldenEnv(t)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.7)
	probe, _, err := Plan(env, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	env.Budgets.RepoCapacity = ReqPerSec(0.9 * float64(Evaluate(env, probe).RepoLoad))
	return env
}

func TestGoldenConstrainedPlan(t *testing.T) {
	env := goldenConstrainedEnv(t)
	for _, workers := range []int{1, 4} {
		p, res, err := Plan(env, PlanOptions{Workers: workers, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		var deallocs, flips int
		for _, s := range res.Sites {
			deallocs += s.Deallocs
			flips += s.ProcFlips
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("D=%.17g deallocs=%d flips=%d rounds=%d messages=%d sha256=%x",
			res.D, deallocs, flips, res.Offload.Rounds, res.Offload.Messages, sha256.Sum256(buf.Bytes()))
		const want = "D=58226.515601366904 deallocs=278 flips=0 rounds=2 messages=16 sha256=f2bc781f2bf6cb13078f6a63efb3d9159b25d7049e4974bb4207a9feaad74e7b"
		if got != want {
			t.Errorf("workers=%d: constrained plan changed\n got  %s\n want %s", workers, got, want)
		}
	}
}
