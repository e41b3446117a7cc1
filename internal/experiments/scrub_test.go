package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func scrubOpts() Options {
	o := Quick()
	o.Runs = 1
	return o
}

// TestScrubSoakMeetsAcceptanceBar runs the chaos soak once and checks the
// tentpole's acceptance criteria directly: every injected corruption is
// caught (zero undetected), repair converges in one cycle, the post-repair
// sweep is clean, and both gray failures are flagged.
func TestScrubSoakMeetsAcceptanceBar(t *testing.T) {
	res, err := Scrub(scrubOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(res.Runs))
	}
	run := res.Runs[0]
	if run.Injected == 0 {
		t.Fatal("soak injected no corruption — it proves nothing")
	}
	if run.Undetected != 0 {
		t.Errorf("%d injected corruptions went undetected", run.Undetected)
	}
	if run.ScrubDetected != run.Injected {
		t.Errorf("scrub found %d of %d injected corruptions", run.ScrubDetected, run.Injected)
	}
	if run.FetchDetected == 0 {
		t.Error("no fetch ever degraded with reason corrupt — the serving-path check never fired")
	}
	if run.Residual != 0 || run.PostRepairCorrupt != 0 {
		t.Errorf("repair did not converge: residual=%d post-repair=%d", run.Residual, run.PostRepairCorrupt)
	}
	if run.RepairBytes == 0 {
		t.Error("anti-entropy repair shipped no bytes")
	}
	if !run.LimpDetected || !run.PartDetected {
		t.Errorf("gray failures not flagged: limp=%v partition=%v", run.LimpDetected, run.PartDetected)
	}
	// The three gray sites are distinct.
	if run.RotSite == run.LimpSite || run.RotSite == run.PartSite || run.LimpSite == run.PartSite {
		t.Errorf("gray failures collide: rot=%d limp=%d part=%d", run.RotSite, run.LimpSite, run.PartSite)
	}
	if !res.Clean() {
		t.Error("Clean() = false on a passing soak")
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "integrity soak: ok") {
		t.Errorf("report verdict missing:\n%s", buf.String())
	}
}
