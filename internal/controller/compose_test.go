package controller

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/trace"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// hookTransport runs fn once, before the first request it carries.
type hookTransport struct {
	once sync.Once
	fn   func()
}

func (h *hookTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.once.Do(h.fn)
	return http.DefaultTransport.RoundTrip(req)
}

// hottest returns the site's highest-frequency page.
func hottest(w *workload.Workload, i int) workload.PageID {
	best := w.Sites[i].Pages[0]
	for _, pid := range w.Sites[i].Pages {
		if w.Pages[pid].Freq > w.Pages[best].Freq {
			best = pid
		}
	}
	return best
}

// TestComposedChaos runs the three controllers on one reconciler through
// the episode `replserve -adapt -heal -scrub -chaos` advertises: traffic
// drifts, a site dies mid-scrub, traffic drifts again during the outage,
// the site returns. Every check below names the way the three private plan
// copies used to break it.
func TestComposedChaos(t *testing.T) {
	env, _ := healEnv(t)
	tight, err := model.NewEnv(env.W, env.Est, model.FullBudgets(env.W).Scale(env.W, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	env = tight
	startup, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.New(env.W, estimate.Config{HalfLife: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Every replica site 1 starts with is rotted, so whatever the adapted
	// plan keeps there gives the scrubber findings.
	plan := &faults.Plan{Seed: 5, Sites: make([]faults.Spec, env.W.NumSites())}
	plan.Sites[1].Rot = startup.StoredSet(1).Members()
	cluster, err := webserve.StartClusterOptions(env.W, startup, webserve.ClusterOptions{AccessTap: est, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	journal := trace.NewJournal(512)
	rec := NewReconciler(env, startup, cluster, ReconcilerOptions{Workers: 1, Journal: journal})
	sup := rec.Supervisor(Options{})
	adapter, err := rec.Adapter(est, AdaptOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	scrubber := rec.Scrubber(ScrubOptions{})
	probe := func(rounds int) {
		for ; rounds > 0; rounds-- {
			if err := sup.Probe(); err != nil {
				t.Error(err)
			}
		}
	}

	site0 := env.W.Sites[0].Pages
	routedOffSite0 := func(label string) {
		t.Helper()
		for _, pid := range site0 {
			if cluster.Route(pid) == 0 {
				t.Errorf("%s: page %d is routed to the dead site", label, pid)
			}
		}
	}

	// Drift, then adapt: the base moves off the startup placement.
	observeFlashCrowd(env.W, est, 1)
	if cyc, err := adapter.CheckNow(1); err != nil || !cyc.Replanned {
		t.Fatalf("first adaptation did not re-plan (err=%v, cycle=%+v)", err, cyc)
	}
	_, adapted := rec.Base()
	if adapted.Equal(startup) {
		t.Fatal("adaptation left the startup placement in place")
	}

	// A scrub cycle straddles the repair: site 0 dies, and is repaired
	// around, after the cycle has read the plan it walks and before it ships
	// its findings. Shipping that snapshot would route site 0's pages home.
	scrubber.http.Transport = &hookTransport{fn: func() {
		if err := cluster.KillSite(0); err != nil {
			t.Error(err)
		}
		probe(repair.FailThreshold)
		if st := sup.States()[0]; st != repair.Down {
			t.Errorf("site 0 %v after %d missed probes, want down", st, repair.FailThreshold)
		}
	}}
	cyc, err := scrubber.RunCycle()
	if err != nil {
		t.Fatalf("scrub cycle: %v", err)
	}
	if len(cyc.Corrupt) == 0 || !cyc.Repaired {
		t.Fatalf("scrub cycle found %d corrupt replicas (repaired=%v); the straddle needs a repair to ship", len(cyc.Corrupt), cyc.Repaired)
	}
	rp := rec.Repair()
	if rp == nil {
		t.Fatal("down site has no active repair plan")
	}
	routedOffSite0("scrub repair straddling the outage repair")
	if _, live := cluster.CurrentPlan(); !live.Equal(rp.Placement) {
		t.Error("scrub repair replaced the outage repair's placement")
	}

	// The repair is built on the adapted base, not the startup placement.
	if _, from := rp.Original(); !from.Equal(adapted) {
		t.Error("repair was computed from a placement other than the adapted base")
	}

	// Drift again during the outage: the new base is re-derived around the
	// down set, so the dead site's pages stay re-homed.
	for i := range env.W.Sites {
		for n := 0; n < 4000; n++ {
			est.Observe(workload.SiteID(i), hottest(env.W, i), 2)
		}
	}
	if cyc, err := adapter.CheckNow(2); err != nil || !cyc.Replanned {
		t.Fatalf("adaptation during the outage did not re-plan (err=%v, cycle=%+v)", err, cyc)
	}
	_, adapted2 := rec.Base()
	routedOffSite0("adaptation during the outage")
	if rp := rec.Repair(); rp == nil {
		t.Error("adaptation during the outage dropped the repair plan")
	} else if _, from := rp.Original(); !from.Equal(adapted2) {
		t.Error("repair was not re-derived from the newly adapted base")
	}
	client := cluster.Client(webserve.ClientOptions{Retries: 2})
	for j := range env.W.Pages {
		pid := workload.PageID(j)
		if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
			t.Errorf("during the outage: page %d: %v", pid, err)
		}
	}

	// Recovery returns to the current base, not the startup placement.
	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	probe(2) // okThreshold
	if st := sup.States()[0]; st != repair.Up {
		t.Fatalf("site 0 %v after 2 answers, want up", st)
	}
	if _, live := cluster.CurrentPlan(); !live.Equal(adapted2) {
		t.Errorf("recovery did not reinstate the adapted placement (startup placement back: %v)", live.Equal(startup))
	}
	for _, pid := range site0 {
		if cluster.Route(pid) != 0 {
			t.Errorf("after recovery: page %d routed to site %d, want home", pid, cluster.Route(pid))
		}
	}

	// Lineage: one chain of generations, each naming its parent and cause.
	var causes []string
	for _, ev := range journal.Events() {
		if ev.Type != "plan.applied" {
			continue
		}
		causes = append(causes, ev.Field("cause"))
		n := len(causes)
		if ev.Field("gen") != strconv.Itoa(n) || ev.Field("parent") != strconv.Itoa(n-1) {
			t.Errorf("plan.applied #%d carries gen=%q parent=%q, want %d and %d", n, ev.Field("gen"), ev.Field("parent"), n, n-1)
		}
	}
	want := []string{"adapt", "repair", "scrub", "adapt", "recovery"}
	if !slices.Equal(causes, want) {
		t.Errorf("plan lineage causes = %v, want %v", causes, want)
	}
}
