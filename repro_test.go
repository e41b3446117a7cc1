package repro

import (
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the documented public-API flow: generate →
// estimates → env → plan → simulate → compare against baselines.
func TestFacadeEndToEnd(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 42)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(42))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	placement, result, err := Plan(env, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !result.Feasible {
		t.Fatalf("plan infeasible: %v", result.Report.Violations())
	}

	cfg := DefaultSimConfig(w)
	cfg.RequestsPerSite = 200
	ours, err := Simulate(w, est, NewStaticPolicy("Proposed", placement), cfg, NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Simulate(w, est, NewRemotePolicy(w), cfg, NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	local, err := Simulate(w, est, NewLocalPolicy(w), cfg, NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if ours.CompositeMean() <= 0 {
		t.Fatal("non-positive response time")
	}
	if ours.CompositeMean() > remote.CompositeMean() {
		t.Errorf("proposed (%.1fs) worse than Remote (%.1fs)", ours.CompositeMean(), remote.CompositeMean())
	}
	if ours.CompositeMean() > local.CompositeMean()*1.05 {
		t.Errorf("proposed (%.1fs) clearly worse than Local (%.1fs)", ours.CompositeMean(), local.CompositeMean())
	}
}

func TestFacadeLRUPolicy(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 43)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(43))
	if err != nil {
		t.Fatal(err)
	}
	lru, err := NewLRUPolicy(w, FullBudgets(w), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(w)
	cfg.RequestsPerSite = 150
	cfg.Warmup = true
	res, err := Simulate(w, est, lru, cfg, NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "LRU" || res.PageRT.N() == 0 {
		t.Error("LRU simulation incomplete")
	}
}

// study returns the table entry with the given command-line name.
func study(t *testing.T, name string) Study {
	t.Helper()
	for _, s := range Studies {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no study %q in the table", name)
	return Study{}
}

func TestFacadeExperiment(t *testing.T) {
	opts := QuickExperiment()
	opts.Runs = 1
	opts.RequestsPerSite = 80
	_, fig, err := study(t, "fig2").Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].X) == 0 {
		t.Error("figure empty")
	}
	sum, _, err := study(t, "table1").Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if audit, ok := sum.(*WorkloadSummary); !ok || audit.Pages == 0 {
		t.Errorf("empty workload summary: %#v", sum)
	}
}

func TestFacadeEvaluate(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 44)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(44))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	r := Evaluate(env, AllLocal(w))
	if !r.Feasible() {
		t.Errorf("all-local under full budgets infeasible: %v", r.Violations())
	}
	if Evaluate(env, AllRemote(w)).D <= r.D {
		t.Error("all-remote should cost more than all-local here")
	}
	if InfiniteCapacity() <= 1e18 {
		t.Error("InfiniteCapacity not infinite")
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 45)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(45))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig(w)
	cfg.RequestsPerSite = 60
	tr, err := RecordTrace(w, est, cfg, NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(w, tr, NewLocalPolicy(w), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRT.N() != int64(60*w.NumSites()) {
		t.Errorf("replayed %d views", res.PageRT.N())
	}
}

func TestFacadeDriftAndThreshold(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 46)
	d, err := DriftWorkload(w, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != w.NumPages() {
		t.Error("drift changed shape")
	}
	pol, err := NewThresholdPolicy(w, FullBudgets(w), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() == "" {
		t.Error("unnamed policy")
	}
}

func TestFacadePlacementPersistence(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 47)
	p := AllLocal(w)
	path := t.TempDir() + "/p.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacement(w, path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Error("persistence round trip lost state")
	}
}

func TestFacadeExperimentWrappers(t *testing.T) {
	opts := QuickExperiment()
	opts.Runs = 1
	opts.RequestsPerSite = 50

	for _, s := range Studies {
		sum, fig, err := s.Run(opts)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
		} else if sum == nil && fig == nil {
			t.Errorf("%s: neither a summary nor a figure", s.Name)
		}
	}
	if _, err := StorageEquivalence(opts); err != nil {
		t.Errorf("StorageEquivalence: %v", err)
	}
	p := PaperExperiment()
	if p.Runs != 20 || p.Workload.Sites != 10 {
		t.Error("PaperExperiment defaults wrong")
	}
}

func TestFacadeExplainAndPerturb(t *testing.T) {
	w := MustGenerateWorkload(SmallWorkloadConfig(), 48)
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(48))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Plan(env, PlanOptions{Workers: 1, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ExplainPage(env, p, 0, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "chains:") {
		t.Error("explanation incomplete")
	}
	if id := NoPerturbConfig(); len(id.LocalRate) == 0 {
		t.Error("NoPerturbConfig empty")
	}
	if def := DefaultPerturbConfig(); len(def.LocalRate) != 3 {
		t.Error("DefaultPerturbConfig shape wrong")
	}
}
