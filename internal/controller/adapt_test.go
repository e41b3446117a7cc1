package controller

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// adaptEnv builds a planned deployment with tight storage (so placements
// are selective and drift actually moves replicas) plus the estimator
// wired in as the cluster's access tap.
func adaptEnv(t *testing.T, storageFrac float64) (*model.Env, *model.Placement, *webserve.Cluster, *estimate.Estimator) {
	t.Helper()
	env, _ := healEnv(t)
	budgets := model.FullBudgets(env.W).Scale(env.W, storageFrac, 1)
	tight, err := model.NewEnv(env.W, env.Est, budgets)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Plan(tight, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.New(tight.W, estimate.Config{HalfLife: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := webserve.StartClusterOptions(tight.W, p, webserve.ClusterOptions{AccessTap: est})
	if err != nil {
		t.Fatal(err)
	}
	return tight, p, cluster, est
}

// coldest returns the site's lowest-frequency page.
func coldest(w *workload.Workload, i int) workload.PageID {
	pages := w.Sites[i].Pages
	best := pages[0]
	for _, pid := range pages {
		if w.Pages[pid].Freq < w.Pages[best].Freq {
			best = pid
		}
	}
	return best
}

// observeBaseline feeds traffic proportional to the planned frequencies.
func observeBaseline(w *workload.Workload, est *estimate.Estimator, t float64) {
	for i := range w.Sites {
		for _, pid := range w.Sites[i].Pages {
			n := int(float64(w.Pages[pid].Freq) * 10)
			if n < 1 {
				n = 1
			}
			for r := 0; r < n; r++ {
				est.Observe(workload.SiteID(i), pid, t)
			}
		}
	}
}

// observeFlashCrowd hammers every site's coldest page — the "breaking
// news" drift of §4.1.
func observeFlashCrowd(w *workload.Workload, est *estimate.Estimator, t float64) {
	for i := range w.Sites {
		hot := coldest(w, i)
		for r := 0; r < 400; r++ {
			est.Observe(workload.SiteID(i), hot, t)
		}
		for _, pid := range w.Sites[i].Pages {
			est.Observe(workload.SiteID(i), pid, t)
		}
	}
}

func TestAdapterReplansOnDrift(t *testing.T) {
	env, p, cluster, est := adaptEnv(t, 0.3)
	defer cluster.Close()
	reg := telemetry.NewRegistry()
	journal := trace.NewJournal(256)
	a, err := NewReconciler(env, p, cluster, ReconcilerOptions{Metrics: reg, Journal: journal}).
		Adapter(est, AdaptOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// In-plan traffic: no trigger.
	observeBaseline(env.W, est, 1)
	cyc, err := a.CheckNow(1)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Decision.Trigger {
		t.Fatalf("in-plan traffic triggered a re-plan: %+v", cyc.Decision)
	}

	// Flash crowd on the cold pages: trigger + re-plan + shipped delta.
	observeFlashCrowd(env.W, est, 2)
	cyc, err = a.CheckNow(2)
	if err != nil {
		t.Fatal(err)
	}
	if !cyc.Decision.Trigger {
		t.Fatalf("flash crowd did not trigger: %+v", cyc.Decision)
	}
	if !cyc.Replanned {
		t.Fatalf("flash crowd triggered but did not re-plan (noop=%v)", cyc.Noop)
	}
	if cyc.Delta == nil || cyc.Delta.CopyBytes <= 0 {
		t.Fatalf("re-plan shipped no bytes: %+v", cyc.Delta)
	}
	shipped := *cyc.Delta
	if shipped.DAfter >= shipped.DBefore {
		t.Errorf("adaptation did not improve predicted D: %.4f -> %.4f", shipped.DBefore, shipped.DAfter)
	}

	// The cluster now serves the fresh placement: a newly-hot page's local
	// object count matches the plan.
	_, fresh := a.Current()
	hot := coldest(env.W, 0)
	wantLocal := 0
	for idx := range env.W.Pages[hot].Compulsory {
		if fresh.CompLocal(hot, idx) {
			wantLocal++
		}
	}
	client := webserve.NewClient(env.W)
	res, err := client.FetchPage(cluster.PageURL(hot), hot)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalChain.Objects != wantLocal {
		t.Errorf("cluster serves %d local objects for hot page, placement says %d", res.LocalChain.Objects, wantLocal)
	}

	// The baseline was rebased onto the adapted plan: the same flash-crowd
	// traffic no longer drifts.
	observeFlashCrowd(env.W, est, 3)
	cyc, err = a.CheckNow(3)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Decision.Trigger {
		t.Fatalf("post-adaptation traffic still triggers: %+v", cyc.Decision)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"adapt.checks": 3, "adapt.triggers": 1, "adapt.replans": 1, "adapt.noops": 0,
		"adapt.copy_bytes": int64(shipped.CopyBytes),
	} {
		if got := counterValue(t, snap, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	assertJournalHas(t, journal, "adapt.check")
	assertJournalHas(t, journal, "adapt.replanned")
	assertJournalHas(t, journal, "plan.applied")
}

func TestAdapterNoopShipsNothing(t *testing.T) {
	// Unconstrained storage: every plan stores everything, so even a
	// triggered re-plan yields an identical placement — the adapter must
	// recognize it and ship zero bytes (never a full re-copy).
	env, p, cluster, est := adaptEnv(t, 1)
	defer cluster.Close()
	journal := trace.NewJournal(256)
	a, err := NewReconciler(env, p, cluster, ReconcilerOptions{Journal: journal}).Adapter(est, AdaptOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	observeFlashCrowd(env.W, est, 1)
	cyc, err := a.CheckNow(1)
	if err != nil {
		t.Fatal(err)
	}
	if !cyc.Decision.Trigger {
		t.Fatalf("flash crowd did not trigger: %+v", cyc.Decision)
	}
	if !cyc.Noop || cyc.Replanned {
		t.Fatalf("unconstrained re-plan should be a noop, got replanned=%v noop=%v (delta %+v)", cyc.Replanned, cyc.Noop, cyc.Delta)
	}
	if cyc.Delta.CopyBytes != 0 || len(cyc.Delta.Copies) != 0 {
		t.Fatalf("noop shipped bytes: %+v", cyc.Delta)
	}
	if got := a.cCopyBytes.Value(); got != 0 {
		t.Fatalf("noop accounted %d copy bytes", got)
	}
	assertJournalHas(t, journal, "adapt.noop")
	// And a second identical burst stays quiet: the baseline was rebased.
	observeFlashCrowd(env.W, est, 2)
	cyc, err = a.CheckNow(2)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Decision.Trigger {
		t.Fatalf("noop did not rebase the baseline: %+v", cyc.Decision)
	}
}

// TestAdapterLoopTicks is the drift loop's liveness smoke: it checks, and
// Stop returns.
func TestAdapterLoopTicks(t *testing.T) {
	env, p, cluster, est := adaptEnv(t, 0.3)
	defer cluster.Close()
	a, err := NewReconciler(env, p, cluster, ReconcilerOptions{}).Adapter(est, AdaptOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	observeBaseline(env.W, est, 1)
	runLoop(t, &a.source, time.Millisecond)()
	if a.cChecks.Value() == 0 {
		t.Fatal("the drift loop ticked without checking")
	}
}

func counterValue(t *testing.T, snap *telemetry.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q missing from snapshot", name)
	return 0
}

func assertJournalHas(t *testing.T, j *trace.Journal, typ string) {
	t.Helper()
	for _, ev := range j.Events() {
		if strings.HasPrefix(ev.Type, typ) {
			return
		}
	}
	t.Errorf("journal has no %q event", typ)
}
