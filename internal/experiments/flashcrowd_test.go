package experiments

import "testing"

func flashOpts() Options {
	o := Quick()
	o.Runs = 1
	o.RequestsPerSite = 1000 // enough samples that estimation noise stays under the trigger
	return o
}

func TestFlashCrowdStaticDegradesOnlineTracks(t *testing.T) {
	res, err := FlashCrowd(flashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(res.Runs))
	}
	run := res.Runs[0]
	if len(run.Epochs) != flashCrowdEpochs+1 {
		t.Fatalf("got %d epochs, want %d", len(run.Epochs), flashCrowdEpochs+1)
	}

	// Epoch 0 traffic matches the plan: estimation noise alone must not
	// trigger a re-plan.
	if run.Epochs[0].Triggered {
		t.Errorf("in-plan epoch-0 traffic triggered (L1=%.3f)", run.Epochs[0].DriftL1)
	}

	// The rotation must sting: the static plan's objective degrades.
	last := run.Epochs[len(run.Epochs)-1]
	if last.DStatic <= run.D0*1.02 {
		t.Errorf("static plan did not degrade under drift: D0=%.0f final=%.0f", run.D0, last.DStatic)
	}

	// The online planner acts, ships bytes, and tracks the drift.
	if run.Replans < 1 {
		t.Fatalf("online planner never re-planned (noops=%d)", run.Noops)
	}
	if run.CopyBytes <= 0 {
		t.Errorf("re-plans shipped no bytes")
	}
	if last.DOnline >= last.DStatic {
		t.Errorf("online planner no better than static at final epoch: %.0f vs %.0f", last.DOnline, last.DStatic)
	}
	staticGap := last.DStatic - last.DOracle
	onlineGap := last.DOnline - last.DOracle
	if onlineGap > staticGap/2 {
		t.Errorf("online planner tracks poorly: gap over oracle %.0f vs static's %.0f", onlineGap, staticGap)
	}

	// Delta shipping only: an epoch without a re-plan bills zero bytes.
	for _, ep := range run.Epochs {
		if !ep.Replanned && ep.CopyBytes != 0 {
			t.Errorf("epoch %d shipped %v without re-planning", ep.Epoch, ep.CopyBytes)
		}
		if ep.DOracle <= 0 || ep.DStatic <= 0 || ep.DOnline <= 0 {
			t.Errorf("epoch %d: non-positive objective %+v", ep.Epoch, ep)
		}
	}

	// Figure shape: three series over the full epoch grid.
	if got := len(res.Timeline.Series); got != 3 {
		t.Fatalf("timeline has %d series, want 3", got)
	}
	for _, s := range res.Timeline.Series {
		if len(s.X) != flashCrowdEpochs+1 {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.X), flashCrowdEpochs+1)
		}
	}
}
