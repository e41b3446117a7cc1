package controller

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// healEnv builds a 3-site planned deployment small enough to probe fast.
func healEnv(t *testing.T) (*model.Env, *model.Placement) {
	t.Helper()
	return healEnvSized(t, []workload.SizeClass{
		{Frac: 0.5, Lo: 2 * units.KB, Hi: 8 * units.KB},
		{Frac: 0.5, Lo: 8 * units.KB, Hi: 32 * units.KB},
	})
}

// healEnvSized is healEnv with the given object sizes.
func healEnvSized(t *testing.T, objects []workload.SizeClass) (*model.Env, *model.Placement) {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Sites = 3
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 4, 6
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 90, 30, 45
	cfg.MOClasses = objects
	w := workload.MustGenerate(cfg, 66)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

// TestStateMachineTransitions drives the supervisor's observe step with
// synthetic probe rounds — no timing, fully deterministic — and checks the
// damping thresholds, the repair on the down edge, and the recovery once
// the site answers again.
func TestStateMachineTransitions(t *testing.T) {
	env, p := healEnv(t)
	cluster, err := webserve.StartCluster(env.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	journal := trace.NewJournal(128)
	s := NewReconciler(env, p, cluster, ReconcilerOptions{Workers: 1, Journal: journal}).
		Supervisor(Options{})
	up, down := []bool{true, true, true}, []bool{false, true, true}
	noRTT := make([]time.Duration, 3)

	// One lost probe suspects, the next success clears — no repair.
	s.observe(down, noRTT)
	if st := s.States()[0]; st != repair.Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", st)
	}
	s.observe(up, noRTT)
	if st := s.States()[0]; st != repair.Up {
		t.Fatalf("after recovery probe: %v, want up", st)
	}
	if s.rec.Repair() != nil {
		t.Fatal("a suspect blip triggered a repair")
	}

	// FailThreshold consecutive failures declare the site down and repair.
	for i := 0; i < 3; i++ {
		s.observe(down, noRTT)
	}
	if st := s.States()[0]; st != repair.Down {
		t.Fatalf("after 3 failures: %v, want down", st)
	}
	plan := s.rec.Repair()
	if plan == nil {
		t.Fatal("down transition produced no repair plan")
	}
	for _, pid := range env.W.Sites[0].Pages {
		if to := cluster.Route(pid); to == 0 {
			t.Fatalf("page %d still routed to the dead site", pid)
		}
	}

	// One good probe is not recovery; an interleaved failure resets.
	s.observe(up, noRTT)
	s.observe(down, noRTT)
	s.observe(up, noRTT)
	if st := s.States()[0]; st != repair.Down {
		t.Fatalf("after flapping: %v, want down", st)
	}
	// okThreshold consecutive successes recover and reinstate routing.
	s.observe(up, noRTT)
	if st := s.States()[0]; st != repair.Up {
		t.Fatalf("after %d good probes: %v, want up", 2, st)
	}
	if s.rec.Repair() != nil {
		t.Fatal("recovery left a repair plan active")
	}
	for _, pid := range env.W.Sites[0].Pages {
		if to := cluster.Route(pid); to != 0 {
			t.Fatalf("page %d routed to %d after recovery, want home site 0", pid, to)
		}
	}
	repairs, recoveries := s.Counts()
	if repairs != 1 || recoveries != 1 {
		t.Fatalf("repairs=%d recoveries=%d, want 1 and 1", repairs, recoveries)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	// The flight recorder saw the whole episode: every transition, the
	// repair plan, both placement pushes, and the final recovery.
	counts := make(map[string]int)
	for _, tc := range trace.CountEventTypes(journal.Events()) {
		counts[tc.Name] = tc.Count
	}
	// up→suspect, suspect→up, up→suspect, suspect→down, down→recovering,
	// recovering→up (the flap while down never leaves the Down state).
	if counts["probe.transition"] != 6 {
		t.Fatalf("probe.transition events = %d, want 6; journal: %+v", counts["probe.transition"], journal.Events())
	}
	for typ, want := range map[string]int{
		"repair.planned":       1,
		"plan.applied":         2, // one repair push, one recovery push
		"controller.recovered": 1,
	} {
		if counts[typ] != want {
			t.Fatalf("%s events = %d, want %d", typ, counts[typ], want)
		}
	}
	// The repair.planned event carries the plan's prediction.
	for _, ev := range journal.Events() {
		if ev.Type == "repair.planned" {
			for _, k := range []string{"down", "rehomed", "d_healthy", "d_degraded", "d_after"} {
				if ev.Field(k) == "" {
					t.Fatalf("repair.planned missing field %q: %+v", k, ev)
				}
			}
		}
	}
}

// TestHealEndToEnd is the acceptance test: under a killed site the running
// supervisor detects the failure within the probe window, converges to a
// repaired placement, and steady-state fetches of every page complete with
// ZERO repository fallbacks — versus PR 3's permanent degraded mode — then
// a restart recovers the original placement.
func TestHealEndToEnd(t *testing.T) {
	env, p := healEnv(t)
	reg := telemetry.NewRegistry()
	cluster, err := webserve.StartClusterOptions(env.W, p, webserve.ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	s := NewReconciler(env, p, cluster, ReconcilerOptions{Workers: 2, Metrics: reg}).Supervisor(Options{
		ProbeInterval: 20 * time.Millisecond,
	})
	s.Start()
	defer func() {
		if s.stop != nil {
			select {
			case <-s.done:
			default:
				s.Stop()
			}
		}
	}()

	fetchAll := func(label string, wantSite0Home bool) {
		t.Helper()
		client := cluster.Client(webserve.ClientOptions{Retries: 2})
		client.Verify = true
		for j := range env.W.Pages {
			pid := workload.PageID(j)
			res, err := client.FetchPage(cluster.PageURL(pid), pid)
			if err != nil {
				t.Fatalf("%s: page %d: %v", label, pid, err)
			}
			if res.Degraded() {
				t.Fatalf("%s: page %d degraded (fallbacks=%d degradedHTML=%v) — the repaired cluster must serve without the repository fallback",
					label, pid, res.Fallbacks, res.DegradedHTML)
			}
		}
		for _, pid := range env.W.Sites[0].Pages {
			home := cluster.Route(pid) == 0
			if home != wantSite0Home {
				t.Fatalf("%s: page %d routed to site %d", label, pid, cluster.Route(pid))
			}
		}
	}

	fetchAll("healthy", true)

	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	if !s.WaitFor(func(st []repair.SiteState) bool { return st[0] == repair.Down }, 5*time.Second) {
		t.Fatalf("site 0 never declared down; states=%v", s.States())
	}
	if s.rec.Repair() == nil {
		t.Fatal("down site has no active repair plan")
	}
	// Steady state under repair: every page — including the dead site's,
	// now re-homed — served with zero fallbacks.
	fetchAll("repaired", false)
	if reg.Counter("controller.repairs").Value() == 0 {
		t.Fatal("repair not counted in telemetry")
	}

	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	if !s.WaitFor(func(st []repair.SiteState) bool {
		for _, v := range st {
			if v != repair.Up {
				return false
			}
		}
		return true
	}, 5*time.Second) {
		t.Fatalf("cluster never recovered; states=%v", s.States())
	}
	if s.rec.Repair() != nil {
		t.Fatal("recovered supervisor still holds a repair plan")
	}
	fetchAll("recovered", true)
	if reg.Counter("controller.recoveries").Value() == 0 {
		t.Fatal("recovery not counted in telemetry")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if v := reg.Counter("controller.probes").Value(); v == 0 {
		t.Fatal("probe loop never probed")
	}
}
