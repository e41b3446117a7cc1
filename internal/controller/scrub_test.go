package controller

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// TestScrubberFindsAndRepairsRot is the anti-entropy unit test: rot three
// stored replicas, run one cycle (every rotted replica found, repaired
// delta-only, re-verified), then a second cycle that must come back clean
// — and, replicas being verified as they stream in, must allocate less per
// replica than one of these (large) objects: reading them whole cost
// several times their size.
func TestScrubberFindsAndRepairsRot(t *testing.T) {
	const smallest = 512 * units.KB
	penv, p := healEnvSized(t, []workload.SizeClass{{Frac: 1, Lo: smallest, Hi: 640 * units.KB}})
	stored := p.StoredSet(0).Members()
	if len(stored) < 3 {
		t.Fatalf("site 0 stores only %d replicas", len(stored))
	}
	rot := stored[:3]

	plan := &faults.Plan{Seed: 7, Sites: make([]faults.Spec, penv.W.NumSites())}
	plan.Sites[0].Rot = append([]int(nil), rot...)
	cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{
		Metrics: true,
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	journal := trace.NewJournal(256)
	s := NewReconciler(penv, p, cluster, ReconcilerOptions{Metrics: cluster.Metrics, Journal: journal}).Scrubber(ScrubOptions{})

	cyc, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Errors != 0 {
		t.Fatalf("scrub saw %d fetch errors on a healthy cluster", cyc.Errors)
	}
	if len(cyc.Corrupt) != len(rot) {
		t.Fatalf("cycle 1 found %d corrupt replicas, want %d: %+v", len(cyc.Corrupt), len(rot), cyc.Corrupt)
	}
	found := map[int]bool{}
	var wantBytes units.ByteSize
	for _, f := range cyc.Corrupt {
		if f.Site != 0 {
			t.Fatalf("finding on site %d, rot was injected on site 0", f.Site)
		}
		found[int(f.Object)] = true
	}
	for _, k := range rot {
		if !found[k] {
			t.Fatalf("rotted object %d not found", k)
		}
		wantBytes += penv.W.ObjectSize(workload.ObjectID(k))
	}
	if !cyc.Repaired {
		t.Fatal("cycle 1 did not repair")
	}
	// Delta-only repair: exactly the rotted replicas' bytes are re-shipped.
	if cyc.RepairBytes != wantBytes {
		t.Fatalf("repair shipped %v, want %v (the rotted replicas only)", cyc.RepairBytes, wantBytes)
	}
	if cluster.RotRemaining() != 0 {
		t.Fatalf("%d replicas still rotted after repair", cluster.RotRemaining())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cyc2, err := s.RunCycle()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(cyc2.Corrupt) != 0 || cyc2.Repaired {
		t.Fatalf("cycle 2 not clean: %d corrupt, repaired=%v", len(cyc2.Corrupt), cyc2.Repaired)
	}
	if perReplica := (after.TotalAlloc - before.TotalAlloc) / uint64(cyc2.Checked); perReplica >= uint64(smallest) {
		t.Errorf("clean cycle allocated %d bytes per replica, want less than one object (%d)", perReplica, int64(smallest))
	}

	// Telemetry and journal agree with the cycle accounting.
	if got := cluster.Metrics.Counter("scrub.corrupt").Value(); got != int64(len(rot)) {
		t.Errorf("scrub.corrupt = %d, want %d", got, len(rot))
	}
	if got := cluster.Metrics.Counter("scrub.repairs").Value(); got != 1 {
		t.Errorf("scrub.repairs = %d, want 1", got)
	}
	var findings, repairs int
	for _, ev := range journal.Events() {
		switch ev.Type {
		case "scrub.corrupt":
			findings++
		case "scrub.repaired":
			repairs++
		}
	}
	if findings != len(rot) || repairs != 1 {
		t.Errorf("journal has %d scrub.corrupt / %d scrub.repaired events, want %d / 1", findings, repairs, len(rot))
	}
}

// TestScrubberMergesSitesInOrder pins the per-site walkers to the
// sequential walk's output: with rot on two sites and the lower one limping
// (so its walker finishes last), the cycle's findings and the journal's
// scrub.corrupt records come out in (site, object) order, and the scrub
// counters add up to the cycle's tallies.
func TestScrubberMergesSitesInOrder(t *testing.T) {
	penv, p := healEnv(t)
	plan := &faults.Plan{Seed: 5, Sites: make([]faults.Spec, penv.W.NumSites())}
	plan.Sites[0].LimpLatency = 2 * time.Millisecond
	plan.Sites[0].Limps = []faults.Window{{Start: 0, End: time.Hour}}
	var want []string
	for _, i := range []int{0, 2} {
		stored := p.StoredSet(workload.SiteID(i)).Members()
		if len(stored) < 5 {
			t.Fatalf("site %d stores only %d replicas", i, len(stored))
		}
		// Listed descending: the order must come from the walk.
		plan.Sites[i].Rot = []int{stored[4], stored[2], stored[0]}
		for _, k := range []int{stored[0], stored[2], stored[4]} {
			want = append(want, fmt.Sprintf("%d/%d", i, k))
		}
	}
	cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{Metrics: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	journal := trace.NewJournal(256)
	s := NewReconciler(penv, p, cluster, ReconcilerOptions{Metrics: cluster.Metrics, Journal: journal}).Scrubber(ScrubOptions{})

	cyc, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	var got, journaled []string
	for _, f := range cyc.Corrupt {
		got = append(got, fmt.Sprintf("%d/%d", f.Site, f.Object))
	}
	for _, ev := range journal.Events() {
		if ev.Type == "scrub.corrupt" {
			journaled = append(journaled, ev.Field(trace.AttrSite)+"/"+ev.Field(trace.AttrObject))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	if !reflect.DeepEqual(journaled, want) {
		t.Fatalf("journal scrub.corrupt records %v, want %v", journaled, want)
	}
	stored := 0
	for i := 0; i < penv.W.NumSites(); i++ {
		stored += p.StoredSet(workload.SiteID(i)).Count()
	}
	if cyc.Checked != stored || cyc.Clean != stored-len(want) || cyc.Errors != 0 || !cyc.Repaired {
		t.Fatalf("cycle checked %d of %d replicas: %d clean, %d errors, repaired=%v", cyc.Checked, stored, cyc.Clean, cyc.Errors, cyc.Repaired)
	}
	for name, v := range map[string]int{"scrub.objects": cyc.Checked, "scrub.clean": cyc.Clean, "scrub.corrupt": len(want), "scrub.errors": 0} {
		if got := cluster.Metrics.Counter(name).Value(); got != int64(v) {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// TestScrubberReverifyFetchErrorIsNotFatal pins the re-verify contract:
// a repaired replica whose re-verify fails is left for the next cycle, not
// a scrub-loop failure. A failed fetch (an injected 503) is counted as a
// fetch error and the cycle still reports the repair; a re-read that is
// corrupt again (every response of the site wire-corrupted) leaves the
// cycle unrepaired, with no scrub.repaired record. The fault stream is a
// pure function of the seed and arrival order, and the cycle fetches one
// replica at a time per site, so the outcome of each row is fixed.
func TestScrubberReverifyFetchErrorIsNotFatal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*faults.Spec)
		check func(cyc *ScrubCycle, repairs int64) string
	}{
		{"fetch error", func(s *faults.Spec) { s.ErrorRate = 0.5 },
			func(cyc *ScrubCycle, repairs int64) string {
				mainPassErrors := cyc.Checked - cyc.Clean - len(cyc.Corrupt)
				if len(cyc.Corrupt) == 0 || !cyc.Repaired || repairs != 1 || cyc.Errors <= mainPassErrors {
					return fmt.Sprintf("re-verify fetch error not exercised: %d corrupt, repaired=%v, %d scrub.repaired, %d errors (%d in the main pass)",
						len(cyc.Corrupt), cyc.Repaired, repairs, cyc.Errors, mainPassErrors)
				}
				return ""
			}},
		{"corrupt re-read", func(s *faults.Spec) { s.CorruptRate = 1 },
			func(cyc *ScrubCycle, repairs int64) string {
				if len(cyc.Corrupt) == 0 || cyc.Repaired || repairs != 0 {
					return fmt.Sprintf("corrupt re-read counted as a repair: %d corrupt, repaired=%v, %d scrub.repaired",
						len(cyc.Corrupt), cyc.Repaired, repairs)
				}
				return ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			penv, p := healEnv(t)
			plan := &faults.Plan{Seed: 3, Sites: make([]faults.Spec, penv.W.NumSites())}
			plan.Sites[0].Rot = p.StoredSet(0).Members()
			tc.fault(&plan.Sites[0])
			cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{Metrics: true, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			journal := trace.NewJournal(256)
			s := NewReconciler(penv, p, cluster, ReconcilerOptions{Metrics: cluster.Metrics, Journal: journal}).Scrubber(ScrubOptions{})

			cyc, err := s.RunCycle()
			if err != nil {
				t.Fatalf("a transient re-verify failure ended the cycle: %v", err)
			}
			var repairs int64
			for _, ev := range journal.Events() {
				if ev.Type == "scrub.repaired" {
					repairs++
				}
			}
			if got := cluster.Metrics.Counter("scrub.repairs").Value(); got != repairs {
				t.Errorf("scrub.repairs = %d, journal has %d scrub.repaired", got, repairs)
			}
			if msg := tc.check(cyc, repairs); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// TestScrubberSkipsDownSites pins availability/integrity separation: a dead
// site's replicas are the supervisor's problem, not integrity findings.
func TestScrubberSkipsDownSites(t *testing.T) {
	penv, p := healEnv(t)
	cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}

	s := NewScrubber(penv, cluster, ScrubOptions{})
	cyc, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Errors != 0 {
		t.Fatalf("scrubbing around a dead site produced %d errors", cyc.Errors)
	}
	if len(cyc.Corrupt) != 0 {
		t.Fatalf("dead site produced %d integrity findings", len(cyc.Corrupt))
	}
}

// TestScrubberRaceWithChaosAndFetches is the -race soak and the scrub
// loop's liveness smoke: the continuous scrub loop, a chaos fault plan, live
// verifying clients and rot repair all run concurrently against one
// cluster. Every fetch must still succeed (the repository fallback absorbs
// the chaos), the loop must tick and stop, and one more cycle must leave
// zero rotted replicas.
func TestScrubberRaceWithChaosAndFetches(t *testing.T) {
	penv, p := healEnv(t)
	stored := p.StoredSet(1).Members()
	n := 4
	if n > len(stored) {
		n = len(stored)
	}
	plan := &faults.Plan{Seed: 11, Sites: make([]faults.Spec, penv.W.NumSites())}
	plan.Sites[1].Rot = append([]int(nil), stored[:n]...)
	plan.Sites[2].ErrorRate = 0.05
	plan.Sites[2].CorruptRate = 0.05
	cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{
		Metrics: true,
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	s := NewReconciler(penv, p, cluster, ReconcilerOptions{Metrics: cluster.Metrics}).Scrubber(ScrubOptions{})
	tickThenStop := runLoop(t, &s.source, 20*time.Millisecond)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := cluster.Client(webserve.ClientOptions{
				Retries:    2,
				JitterSeed: uint64(g + 1),
			})
			site := g % penv.W.NumSites()
			for i := 0; i < 6; i++ {
				pid := penv.W.Sites[site].Pages[i%len(penv.W.Sites[site].Pages)]
				if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	tickThenStop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scrub loop error: %v", err)
	}

	// Site 1 has rot and no chaos, so one cycle finds whatever rot the loop
	// left and clears it.
	if _, err := s.RunCycle(); err != nil {
		t.Fatal(err)
	}
	if got := cluster.RotRemaining(); got != 0 {
		t.Fatalf("%d replicas still rotted after the soak", got)
	}
	m := cluster.Metrics
	cycles, corrupt, repairs := m.Counter("scrub.cycles").Value(), m.Counter("scrub.corrupt").Value(), m.Counter("scrub.repairs").Value()
	if cycles < 2 || corrupt < int64(n) || repairs == 0 {
		t.Fatalf("soak accounting off: cycles=%d corrupt=%d repairs=%d (want ≥2/≥%d/≥1)", cycles, corrupt, repairs, n)
	}
}

// TestSupervisorDetectsLimpingSite pins the latency-aware health layer end
// to end: a site that answers every probe 200-but-slow walks to Down via the
// EWMA threshold in FailThreshold probe rounds, with the probe RTT recorded
// on the journal transitions.
func TestSupervisorDetectsLimpingSite(t *testing.T) {
	penv, p := healEnv(t)
	plan := &faults.Plan{Seed: 3, Sites: make([]faults.Spec, penv.W.NumSites())}
	plan.Sites[1].LimpLatency = 30 * time.Millisecond
	plan.Sites[1].Limps = []faults.Window{{Start: 0, End: time.Hour}}
	cluster, err := webserve.StartClusterOptions(penv.W, p, webserve.ClusterOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	journal := trace.NewJournal(256)
	rec := NewReconciler(penv, p, cluster, ReconcilerOptions{Workers: 1, Journal: journal, Metrics: telemetry.NewRegistry()})
	// The probe timeout is far above the limp: every probe answers 200, so
	// only the latency threshold can demote the site — the gray path under
	// test. The first answer seeds the EWMA above the threshold, so every
	// round is a miss.
	s := rec.Supervisor(Options{LatencyThreshold: 5 * time.Millisecond})
	// The first answer seeds the healthy sites' EWMAs too. Collect the
	// setup's garbage before it: under -race on a loaded box, a collection
	// running through the first round slows every answer past 5 ms, and the
	// EWMA stays above the threshold for the next two rounds.
	runtime.GC()
	for round := 0; round < repair.FailThreshold; round++ {
		if err := s.Probe(); err != nil {
			t.Fatal(err)
		}
	}
	if states := s.States(); states[1] != repair.Down {
		t.Fatalf("limping site not down after %d probe rounds; states=%v", repair.FailThreshold, states)
	} else if states[0] == repair.Down || states[2] == repair.Down {
		t.Fatalf("healthy sites demoted: %v", states)
	}
	s.mu.Lock()
	_, ewma := s.health.Latency(1)
	s.mu.Unlock()
	if ewma < 0.005 {
		t.Errorf("limping site's EWMA %.2fms below the threshold that demoted it", ewma*1e3)
	}
	var sawRTT bool
	for _, ev := range journal.Events() {
		if ev.Type == "probe.transition" && ev.Field("rtt_ms") != "" {
			sawRTT = true
		}
	}
	if !sawRTT {
		t.Error("no probe.transition journal event carries rtt_ms")
	}
}
