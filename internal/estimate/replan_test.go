package estimate

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/workload"
)

// refStep is the re-plan sequence the adapter and the flash-crowd study
// each ran inline before they shared Detector.Replan, kept as the
// reference the step must reproduce: weights scaled by 1000 into counts,
// the count-based estimate, a new environment with the old α weights, a
// plan, the change delta and the diff.
func refStep(t *testing.T, env *model.Env, base *model.Placement, snap *Snapshot, workers int) (*model.Env, *model.Placement, repair.Delta, bool) {
	t.Helper()
	counts := make(Counts)
	for _, se := range snap.Sites {
		for _, pw := range se.Pages {
			if pw.Weight > 1e-9 {
				counts[pw.Page] = int64(pw.Weight * 1000)
			}
		}
	}
	w2, err := EstimateWorkload(env.W, counts)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := model.NewEnv(w2, env.Est, env.Budgets)
	if err != nil {
		t.Fatal(err)
	}
	env2.Alpha1, env2.Alpha2 = env.Alpha1, env.Alpha2
	fresh, _, err := core.Plan(env2, core.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	delta := repair.ChangeDelta(env, env2, base, fresh)
	diff, err := model.Diff(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	return env2, fresh, delta, diff.Changed()
}

// replanFixture is a half-storage plan of the small workload and an
// estimator fed traffic from a drifted copy of it.
func replanFixture(t *testing.T, seed uint64) (*model.Env, *model.Placement, *Snapshot) {
	t.Helper()
	w := workload.MustGenerate(workload.SmallConfig(), seed)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	env.Alpha1, env.Alpha2 = 0.7, 0.3 // the step must carry these, not w's
	base, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := workload.Drift(w, 0.6, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w, Config{HalfLife: 30})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, drawObservations(drifted, 3000, 60, seed))
	return env, base, e.Snapshot(60)
}

func encodePlacement(t *testing.T, p *model.Placement) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplanMatchesInlineSequence: over several seeds the step's placement
// (byte for byte), delta (every float bit for bit) and change verdict
// equal the inline reference's; handed the reference's own plan as its
// base, the step reports no change and ships nothing.
func TestReplanMatchesInlineSequence(t *testing.T) {
	for _, seed := range []uint64{3, 11, 31, 47} {
		env, base, snap := replanFixture(t, seed)
		wantEnv, wantPlan, wantDelta, wantChanged := refStep(t, env, base, snap, 1)

		d, err := NewDetector(BaselineVector(env.W), DetectorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Replan(env, base, snap, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Decision.Trigger {
			t.Fatalf("seed %d: drifted traffic did not trigger: %+v", seed, p.Decision)
		}
		if !bytes.Equal(encodePlacement(t, p.Plan), encodePlacement(t, wantPlan)) {
			t.Fatalf("seed %d: step placement differs from the inline sequence's", seed)
		}
		if !reflect.DeepEqual(p.Delta, wantDelta) || p.Changed != wantChanged || !wantChanged {
			t.Fatalf("seed %d: step delta/changed = %+v/%v, reference %+v/%v", seed, p.Delta, p.Changed, wantDelta, wantChanged)
		}
		for _, f := range [][2]float64{{p.Delta.DHealthy, wantDelta.DHealthy}, {p.Delta.DBefore, wantDelta.DBefore}, {p.Delta.DAfter, wantDelta.DAfter}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("seed %d: delta objective %v, reference %v", seed, f[0], f[1])
			}
		}
		if !reflect.DeepEqual(p.Env.W.Pages, wantEnv.W.Pages) || p.Env.Alpha1 != 0.7 || p.Env.Alpha2 != 0.3 ||
			p.Env.Est != env.Est || !reflect.DeepEqual(p.Env.Budgets, env.Budgets) {
			t.Fatalf("seed %d: re-estimated environment differs from the reference's", seed)
		}

		// The reference's plan as the base: nothing to ship.
		d.Rebase(BaselineVector(env.W))
		p, err = d.Replan(env, wantPlan, snap, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Changed || p.Delta.CopyBytes != 0 || len(p.Delta.Copies) != 0 {
			t.Fatalf("seed %d: re-planning onto its own result changed something: %+v", seed, p.Delta)
		}
	}
}

// TestReplanGates: an untriggered check proposes nothing, a snapshot of
// the wrong shape is an error with no proposal, and a re-plan that fails
// after a trigger still reports the decision.
func TestReplanGates(t *testing.T) {
	env, base, snap := replanFixture(t, 3)
	d, err := NewDetector(BaselineVector(env.W), DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	quiet := &Snapshot{Sites: nil} // nothing observed: an all-zero vector, far from the baseline
	p, err := d.Replan(env, base, quiet, 1)
	if err != nil || !p.Decision.Trigger || p.Plan == nil {
		t.Fatalf("all-zero estimate should trigger a re-plan: %+v, %v", p, err)
	}
	// Disarmed now: the same drift is Exceeded but proposes nothing.
	p, err = d.Replan(env, base, snap, 1)
	if err != nil || p.Decision.Trigger || !p.Decision.Exceeded || p.Plan != nil || p.Env != nil {
		t.Fatalf("disarmed detector proposed a plan: %+v, %v", p, err)
	}

	short, err := NewDetector([]float64{1}, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := short.Replan(env, base, snap, 1); err == nil || p != nil {
		t.Fatalf("snapshot of the wrong length accepted: %+v, %v", p, err)
	}

	d.Rebase(BaselineVector(env.W))
	broken := *env
	broken.Est = &netsim.Estimates{} // no site estimates: the new environment cannot be built
	p, err = d.Replan(&broken, base, snap, 1)
	if err == nil || p == nil || !p.Decision.Trigger || p.Plan != nil {
		t.Fatalf("failed re-plan should return the decision and an error: %+v, %v", p, err)
	}
}
