package controller

import (
	"bytes"
	"strings"
	"sync"
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
	observe := func(ok []bool) {
		t.Helper()
		if err := s.observe(ok, noRTT); err != nil {
			t.Fatal(err)
		}
	}

	// One lost probe suspects, the next success clears — no repair.
	observe(down)
	if st := s.States()[0]; st != repair.Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", st)
	}
	observe(up)
	if st := s.States()[0]; st != repair.Up {
		t.Fatalf("after recovery probe: %v, want up", st)
	}
	if s.rec.Repair() != nil {
		t.Fatal("a suspect blip triggered a repair")
	}

	// FailThreshold consecutive failures declare the site down and repair.
	for i := 0; i < 3; i++ {
		observe(down)
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
	observe(up)
	observe(down)
	observe(up)
	if st := s.States()[0]; st != repair.Down {
		t.Fatalf("after flapping: %v, want down", st)
	}
	// okThreshold consecutive successes recover and reinstate routing.
	observe(up)
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
	if repairs, recoveries := s.cRepairs.Value(), s.cRecoveries.Value(); repairs != 1 || recoveries != 1 {
		t.Fatalf("repairs=%d recoveries=%d, want 1 and 1", repairs, recoveries)
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

// TestHealEndToEnd is the acceptance test, decided by probe count: a
// killed site is suspect for FailThreshold−1 probe rounds and repaired on
// the FailThreshold-th; under the repair, fetches of every page complete
// with ZERO repository fallbacks, where the client alone would degrade
// every view of the dead site's pages; after a restart, exactly okThreshold
// (2) rounds reinstate the base.
func TestHealEndToEnd(t *testing.T) {
	env, p := healEnv(t)
	reg := telemetry.NewRegistry()
	cluster, err := webserve.StartClusterOptions(env.W, p, webserve.ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	s := NewReconciler(env, p, cluster, ReconcilerOptions{Workers: 2, Metrics: reg}).Supervisor(Options{})
	probe := func(rounds int) {
		t.Helper()
		for ; rounds > 0; rounds-- {
			if err := s.Probe(); err != nil {
				t.Fatal(err)
			}
		}
	}

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
	probe(repair.FailThreshold - 1)
	if st := s.States()[0]; st != repair.Suspect || s.rec.Repair() != nil {
		t.Fatalf("after %d missed probes: site 0 %v, repair active %v; want suspect and none", repair.FailThreshold-1, st, s.rec.Repair() != nil)
	}
	// The down edge commits while an observer reads: a site is never down
	// before the plan that repairs it routes its pages elsewhere.
	site0Page := env.W.Sites[0].Pages[0]
	committed := make(chan error, 1)
	go func() { committed <- s.Probe() }()
	for watching := true; watching; {
		select {
		case err := <-committed:
			if err != nil {
				t.Fatal(err)
			}
			watching = false
		default:
		}
		if s.States()[0] == repair.Down && cluster.Route(site0Page) == 0 {
			t.Fatal("site 0 observed down before its repair was live")
		}
	}
	if st := s.States()[0]; st != repair.Down || s.rec.Repair() == nil {
		t.Fatalf("after %d missed probes: site 0 %v, repair active %v; want down and repaired", repair.FailThreshold, st, s.rec.Repair() != nil)
	}
	// Steady state under repair: every page — including the dead site's,
	// now re-homed — served with zero fallbacks.
	fetchAll("repaired", false)
	if got := reg.Counter("controller.repairs").Value(); got != 1 {
		t.Fatalf("controller.repairs = %d, want 1", got)
	}

	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	probe(1)
	if st := s.States()[0]; st != repair.Down || s.rec.Repair() == nil {
		t.Fatalf("one answer after the restart: site 0 %v, repair active %v; want still down and repaired", st, s.rec.Repair() != nil)
	}
	probe(1)
	for i, st := range s.States() {
		if st != repair.Up {
			t.Fatalf("two answers after the restart: site %d %v, want up", i, st)
		}
	}
	if s.rec.Repair() != nil {
		t.Fatal("recovered supervisor still holds a repair plan")
	}
	if got := reg.Counter("controller.recoveries").Value(); got != 1 {
		t.Fatalf("controller.recoveries = %d, want 1", got)
	}
	fetchAll("recovered", true)
}

// TestSupervisorReportsFailedCommit reaches the commit's error path by
// step: with every site dead there is no survivor to repair onto, so the
// FailThreshold-th probe round's commit fails. The round returns the error,
// the sites still read down, nothing is applied, and the journal's tail is
// dumped to the log.
func TestSupervisorReportsFailedCommit(t *testing.T) {
	env, p := healEnv(t)
	cluster, err := webserve.StartCluster(env.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := range cluster.SiteBases {
		if err := cluster.KillSite(i); err != nil {
			t.Fatal(err)
		}
	}
	var log bytes.Buffer
	rec := NewReconciler(env, p, cluster, ReconcilerOptions{Workers: 1, Journal: trace.NewJournal(64), Log: &log})
	s := rec.Supervisor(Options{})
	for round := 1; round < repair.FailThreshold; round++ {
		if err := s.Probe(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := s.Probe(); err == nil || !strings.Contains(err.Error(), "repair commit after gen 0") {
		t.Fatalf("round %d: err = %v, want the failed repair commit", repair.FailThreshold, err)
	}
	for i, st := range s.States() {
		if st != repair.Down {
			t.Errorf("site %d %v after the failed commit, want down", i, st)
		}
	}
	if rec.Repair() != nil {
		t.Error("a failed commit left a repair plan")
	}
	if !strings.Contains(log.String(), "journal dump") {
		t.Errorf("failed commit did not dump the journal; log:\n%s", log.String())
	}
}

// runLoop starts src's loop at period and returns a function that waits for
// the loop's first step to return, then stops the loop: the real-time check
// that a loop ticks and that Stop returns. Everything else about a source is
// decided by calling its step.
func runLoop(t *testing.T, src *source, period time.Duration) (tickThenStop func()) {
	ticked := make(chan struct{})
	var once sync.Once
	step := src.step
	src.step = func() error {
		err := step()
		once.Do(func() { close(ticked) })
		return err
	}
	src.period = period
	src.Start()
	return func() {
		t.Helper()
		defer src.Stop()
		select {
		case <-ticked:
		case <-time.After(10 * time.Second):
			t.Errorf("%s loop did not tick in 10s", src.name)
		}
	}
}

// TestSupervisorLoopTicks is the probe loop's liveness smoke: it probes, and
// Stop returns.
func TestSupervisorLoopTicks(t *testing.T) {
	env, p := healEnv(t)
	cluster, err := webserve.StartCluster(env.W, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	s := NewReconciler(env, p, cluster, ReconcilerOptions{Workers: 1}).Supervisor(Options{})
	runLoop(t, &s.source, 5*time.Millisecond)()
	if s.cProbes.Value() == 0 {
		t.Fatal("the probe loop ticked without probing")
	}
}
