package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestPlanEndToEndFeasible(t *testing.T) {
	env := genEnv(t, 31)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.5)
	p, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("plan infeasible: %v", res.Report.Violations())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Cached objective must match the pure evaluation.
	r := model.Evaluate(env, p)
	if diff := r.D - res.D; diff > 1e-6*r.D || diff < -1e-6*r.D {
		t.Errorf("result D %v != evaluated %v", res.D, r.D)
	}
}

func TestPlanParallelMatchesSequential(t *testing.T) {
	run := func(workers int) (*model.Placement, *Result) {
		env := genEnv(t, 32)
		env.Budgets = env.Budgets.Scale(env.W, 0.4, 0.6)
		// Refine included: it is per-site and must stay deterministic
		// under the parallel planner too.
		p, res, err := Plan(env, Options{Workers: workers, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		return p, res
	}
	p1, r1 := run(1)
	p4, r4 := run(4)
	if r1.D != r4.D {
		t.Errorf("D differs: sequential %v, parallel %v", r1.D, r4.D)
	}
	w := p1.Workload()
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if p1.CompLocal(pid, idx) != p4.CompLocal(pid, idx) {
				t.Fatalf("page %d comp %d differs between worker counts", j, idx)
			}
		}
	}
	for i := range w.Sites {
		if !p1.StoredSet(workload.SiteID(i)).Equal(p4.StoredSet(workload.SiteID(i))) {
			t.Fatalf("site %d stores differ between worker counts", i)
		}
	}
}

func TestPlanWithOffload(t *testing.T) {
	env := genEnv(t, 33)
	// First find the pre-offload repository load, then re-plan with a
	// 50 % cap on it.
	_, probe, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pre := probe.Report.RepoLoad

	env2 := genEnv(t, 33)
	env2.Budgets.RepoCapacity = units.ReqPerSec(float64(pre) * 0.5)
	var log strings.Builder
	_, res, err := Plan(env2, Options{Workers: 2, MessageLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offload.Ran {
		t.Fatal("offload should have run")
	}
	if !res.Feasible {
		t.Fatalf("plan infeasible: %v", res.Report.Violations())
	}
	if !strings.Contains(log.String(), "NewReq") {
		t.Error("offload produced no message log")
	}
}

func TestPlanDeterministic(t *testing.T) {
	run := func() float64 {
		env := genEnv(t, 34)
		env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.4)
		_, res, err := Plan(env, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.D
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs gave D=%v and D=%v", a, b)
	}
}

func TestPlanBeatsBaselinesUnconstrained(t *testing.T) {
	env := genEnv(t, 35)
	p, res, err := Plan(env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	dLocal := model.D(env, model.AllLocal(env.W))
	dRemote := model.D(env, model.AllRemote(env.W))
	if res.D > dLocal+1e-9 || res.D > dRemote+1e-9 {
		t.Errorf("unconstrained plan D %v should beat local %v and remote %v", res.D, dLocal, dRemote)
	}
}

func TestPlanResultWrite(t *testing.T) {
	env := genEnv(t, 36)
	_, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: D=", "site  0", "replicas"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("result report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestPlanSiteStatsConsistent(t *testing.T) {
	env := genEnv(t, 37)
	p, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalComp := 0
	for j := range env.W.Pages {
		totalComp += len(env.W.Pages[j].Compulsory)
	}
	gotComp := 0
	for _, s := range res.Sites {
		gotComp += s.LocalComp + s.RemoteComp
		if s.StoredObjects != p.StoredSet(s.Site).Count() {
			t.Errorf("site %d stored count mismatch", s.Site)
		}
	}
	if gotComp != totalComp {
		t.Errorf("compulsory accounting: %d != %d", gotComp, totalComp)
	}
}

// recountSiteStats is the site statistics walk Plan once ran after
// planning, kept as the reference for the counters it reads now: every
// reference of every page of the site, counted off the placement.
func recountSiteStats(p *model.Placement) []SiteStats {
	w := p.Workload()
	stats := make([]SiteStats, w.NumSites())
	for i := range w.Sites {
		st := &stats[i]
		st.Site = workload.SiteID(i)
		st.StoredObjects = p.StoredSet(st.Site).Count()
		for _, pid := range w.Sites[i].Pages {
			pg := &w.Pages[pid]
			for idx := range pg.Compulsory {
				if p.CompLocal(pid, idx) {
					st.LocalComp++
				} else {
					st.RemoteComp++
				}
			}
			for idx := range pg.Optional {
				if p.OptLocal(pid, idx) {
					st.LocalOpt++
				}
			}
		}
	}
	return stats
}

// TestSiteStatsMatchRecount holds Result.Sites' counted fields to the
// recount on a full-budget plan, a constrained plan with Refine and a
// capped repository, a Partitioned's plans at three budgets, and a
// repair-style planner adopted with a site down and then finished.
func TestSiteStatsMatchRecount(t *testing.T) {
	env := genEnv(t, 47)
	w := env.W
	check := func(label string, p *model.Placement, res *Result) {
		t.Helper()
		want := recountSiteStats(p)
		for i, got := range res.Sites {
			got.Deallocs, got.ProcFlips = 0, 0
			if got != want[i] {
				t.Errorf("%s: site %d stats %+v, recount %+v", label, i, got, want[i])
			}
		}
	}
	p, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("full budget", p, res)

	tight := *env
	tight.Budgets = env.Budgets.Scale(w, 0.4, 0.6)
	tight.Budgets.RepoCapacity = units.ReqPerSec(0.8 * float64(model.RepoLoad(env, p)))
	p, res, err = Plan(&tight, Options{Workers: 2, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites[0].Deallocs == 0 || !res.Offload.Ran {
		t.Fatalf("constrained recipe restores or off-loads nothing: %+v", res)
	}
	check("constrained", p, res)

	pt := Partition(env, Options{Workers: 1})
	for _, frac := range []float64{1, 0.5, 0.2} {
		b := *env
		b.Budgets = env.Budgets.Scale(w, frac, frac)
		p, res, err := pt.Plan(&b, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("partitioned at %v", frac), p, res)
	}

	env2, err := model.NewEnv(rehomed(w, 1), env.Est, tight.Budgets)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(env2)
	if err := pl.AdoptPlacement(p, 1); err != nil {
		t.Fatal(err)
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	p, res, err = pl.finish(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("adopted with site 1 down", p, res)
}

func TestPlanMirroredWorkload(t *testing.T) {
	// Section 3: page copies are distinct pages. The full pipeline must
	// handle a mirrored workload, and per-copy placements may differ
	// (different sites see different estimates).
	cfg := workload.SmallConfig()
	cfg.MirrorHotPages = 1
	w := workload.MustGenerate(cfg, 122)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(122))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("mirrored plan infeasible: %v", res.Report.Violations())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(env)
	if err := pl.AdoptPlacement(p); err != nil {
		t.Fatal(err)
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}
