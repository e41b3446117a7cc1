package experiments

import "testing"

func TestRecoveryShape(t *testing.T) {
	res, err := Recovery(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(res.Runs))
	}
	// EXPERIMENTS E11 quotes three 1 s probes: the probe law's K.
	wantMTTD := 3.0
	for _, run := range res.Runs {
		if run.Rehomed == 0 {
			t.Errorf("run %d: failing the busiest site re-homed no pages", run.Run)
		}
		if float64(run.MTTD) != wantMTTD {
			t.Errorf("run %d: MTTD %.1fs, want %.1fs", run.Run, float64(run.MTTD), wantMTTD)
		}
		if run.MTTR < run.MTTD {
			t.Errorf("run %d: MTTR %.1fs below detection time %.1fs", run.Run, float64(run.MTTR), float64(run.MTTD))
		}
		// Losing a site must hurt; repair must claw most of it back without
		// beating the unconstrained healthy plan.
		if run.DDegraded <= run.DHealthy {
			t.Errorf("run %d: degraded D %.0f not above healthy %.0f", run.Run, run.DDegraded, run.DHealthy)
		}
		// Note: no DRepaired >= DHealthy assertion — a re-homed community
		// inherits its new host's network estimates in the model, so moving
		// pages off a badly-connected site can (legitimately, per Eq. 5-7)
		// land below the healthy objective.
		if run.DRepaired >= run.DDegraded {
			t.Errorf("run %d: repaired D %.0f no better than degraded %.0f", run.Run, run.DRepaired, run.DDegraded)
		}
		if !run.Feasible {
			t.Errorf("run %d: repaired plan infeasible on survivors", run.Run)
		}
	}
	for _, name := range []string{"Self-healing", "Fallback only"} {
		s := seriesByName(res.Timeline, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.X) != recoveryTimelineSteps+1 {
			t.Errorf("%s has %d points, want %d", name, len(s.X), recoveryTimelineSteps+1)
		}
	}
	// Both trajectories start healthy and settle back at the baseline: the
	// horizon extends past the slowest run's recovery.
	heal := seriesByName(res.Timeline, "Self-healing")
	fb := seriesByName(res.Timeline, "Fallback only")
	last := len(heal.Y) - 1
	if heal.Y[0] != 0 || fb.Y[0] != 0 {
		t.Errorf("trajectories do not start at the healthy baseline: heal %+.2f%%, fallback %+.2f%%",
			heal.Y[0], fb.Y[0])
	}
	if heal.Y[last] != 0 || fb.Y[last] != 0 {
		t.Errorf("trajectories do not settle at the healthy baseline: heal %+.2f%%, fallback %+.2f%%",
			heal.Y[last], fb.Y[last])
	}
	// Area under the curve: the whole point of the controller. Self-healing
	// trades the degraded plateau for the cheaper repaired one halfway
	// through the outage, so its integrated penalty must be smaller.
	var healArea, fbArea float64
	for i := range heal.Y {
		healArea += heal.Y[i]
		fbArea += fb.Y[i]
	}
	if healArea >= fbArea {
		t.Errorf("self-healing area %.1f not below fallback-only area %.1f", healArea, fbArea)
	}
}
