package experiments

import "testing"

// TestOverloadAcceptance pins the study's whole point: without protections
// the post-spike retry storm keeps the system collapsed (goodput under 20%
// of capacity although offered load is 60% of it), and with the admission
// stack on, goodput recovers within one drain window, retry amplification
// stays within the budget's 1.1× bound, and no response is ever served
// past its deadline.
func TestOverloadAcceptance(t *testing.T) {
	opts := Quick()
	opts.Runs = 2
	res, err := Overload(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Off.PostSpikeGoodput >= 0.2*overloadCapacity {
			t.Errorf("run %d off: post-spike goodput %.0f req/s — expected metastable collapse under 20%% of capacity (%.0f)",
				run.Run, run.Off.PostSpikeGoodput, 0.2*overloadCapacity)
		}
		if run.Off.RecoverMs >= 0 {
			t.Errorf("run %d off: recovered at %dms — an unprotected metastable failure must not recover", run.Run, run.Off.RecoverMs)
		}
		if run.On.RecoverMs < 0 || run.On.RecoverMs > drainWindow().Milliseconds() {
			t.Errorf("run %d on: recover %dms, want within one drain window (%dms)",
				run.Run, run.On.RecoverMs, drainWindow().Milliseconds())
		}
		if run.On.Amplification > 1.1 {
			t.Errorf("run %d on: retry amplification %.3f exceeds the 1.1x budget bound", run.Run, run.On.Amplification)
		}
		if run.On.DeadlineServed != 0 {
			t.Errorf("run %d on: %d responses served past their deadline — deadline propagation must make this zero", run.Run, run.On.DeadlineServed)
		}
		if run.On.PeakQueue > overloadMaxQueue {
			t.Errorf("run %d on: peak queue %d exceeds the admission bound %d", run.Run, run.On.PeakQueue, overloadMaxQueue)
		}
		// Both passes saw the same demand: the spike really was 10x.
		if run.On.Requests < 5000 || run.Off.Requests < 5000 {
			t.Errorf("run %d: suspiciously few requests (off %d, on %d)", run.Run, run.Off.Requests, run.On.Requests)
		}
	}
	if !res.Clean() {
		t.Error("Clean() = false on a passing result")
	}
}

// TestRetryBudgetArithmetic pins the token bucket: starts full, spends one
// per retry, earns ratio per success and caps at max.
func TestRetryBudgetArithmetic(t *testing.T) {
	b := newRetryBudget(0.1, 2)
	if b.tokens != 2 {
		t.Fatalf("fresh budget has %v tokens, want 2 (full)", b.tokens)
	}
	if !b.spend() || !b.spend() {
		t.Fatal("full budget refused a spend")
	}
	if b.spend() {
		t.Fatal("empty budget allowed a spend")
	}
	for i := 0; i < 10; i++ {
		b.earn()
	}
	if b.tokens < 0.999 || b.tokens > 1.001 {
		t.Fatalf("10 earns at 0.1 = %v tokens, want 1", b.tokens)
	}
	if !b.spend() {
		t.Fatal("earned token not spendable")
	}
	for i := 0; i < 100; i++ {
		b.earn()
	}
	if b.tokens > 2 {
		t.Fatalf("budget exceeded its cap: %v > 2", b.tokens)
	}
}

// TestOverloadSeedSensitivity: a different seed draws a different arrival
// process — the reproducibility above is seed-derivation, not constants.
func TestOverloadSeedSensitivity(t *testing.T) {
	run := func(seed uint64) int {
		opts := Quick()
		opts.Runs = 1
		opts.Seed = seed
		res, err := Overload(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Runs[0].Off.Requests
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical request counts — arrival stream not seed-derived")
	}
}
