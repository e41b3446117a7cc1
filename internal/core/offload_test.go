package core

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// planned returns a planner that has completed the per-site phases under
// the given budgets transform.
func planned(t *testing.T, seed uint64, tweak func(*model.Env)) (*Planner, *model.Env) {
	t.Helper()
	env := genEnv(t, seed)
	if tweak != nil {
		tweak(env)
	}
	pl := NewPlanner(env)
	pl.PartitionAll()
	for i := range env.W.Sites {
		pl.RestoreStorageSite(workload.SiteID(i))
		pl.RestoreProcessingSite(workload.SiteID(i))
	}
	return pl, env
}

func TestOffloadNoopWhenUnconstrained(t *testing.T) {
	pl, _ := planned(t, 21, nil)
	st := pl.Offload(nil)
	if st.Ran {
		t.Error("offload ran with infinite repository capacity")
	}
	if !st.Restored {
		t.Error("unconstrained repo should report restored")
	}
}

func TestOffloadRestoresConstraint(t *testing.T) {
	var preLoad units.ReqPerSec
	pl, env := planned(t, 22, nil)
	preLoad = pl.RepoLoad()
	if preLoad <= 0 {
		t.Fatal("expected some repository load after planning")
	}
	// Let the repository serve only 40 % of the workload currently aimed
	// at it (the DESIGN.md §3.7 reading of "central capacity 40 %").
	env.Budgets.RepoCapacity = units.ReqPerSec(float64(preLoad) * 0.4)

	var log strings.Builder
	st := pl.Offload(&log)
	if !st.Ran {
		t.Fatal("offload did not run")
	}
	if !st.Restored {
		t.Fatalf("offload failed to restore Eq. 9: %v > %v\nlog:\n%s",
			pl.RepoLoad(), env.Budgets.RepoCapacity, log.String())
	}
	if float64(pl.RepoLoad()) > float64(env.Budgets.RepoCapacity)*(1+1e-9) {
		t.Errorf("repo load %v over capacity %v", pl.RepoLoad(), env.Budgets.RepoCapacity)
	}
	if st.MovedLocal <= 0 {
		t.Error("no workload moved local")
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Sites must stay within their own constraints.
	r := model.Evaluate(env, pl.p)
	for _, s := range r.Sites {
		if !s.StorageOK() {
			t.Errorf("site %d storage violated after offload (%v > %v)", s.Site, s.StorageUsed, s.StorageLimit)
		}
		if !s.LoadOK() {
			t.Errorf("site %d capacity violated after offload (%v > %v)", s.Site, s.Load, s.Capacity)
		}
	}
	for _, want := range []string{"repository: collected", "NewReq", "accepted"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log missing %q", want)
		}
	}
}

func TestOffloadImpossibleConstraint(t *testing.T) {
	// Zero site capacity: nothing can move local, so a tight repository
	// constraint cannot be restored; the loop must terminate and say so.
	pl, env := planned(t, 24, func(e *model.Env) {
		e.Budgets = e.Budgets.Scale(e.W, 1, 0)
	})
	env.Budgets.RepoCapacity = 1
	st := pl.Offload(nil)
	if st.Restored {
		t.Error("impossible constraint reported restored")
	}
	if st.Rounds > maxOffloadRounds {
		t.Errorf("rounds = %d", st.Rounds)
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptWorkloadRespectsCapacity(t *testing.T) {
	pl, env := planned(t, 25, func(e *model.Env) {
		e.Budgets = e.Budgets.Scale(e.W, 1, 0.3)
	})
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		head := pl.freeCapacity(id)
		res := pl.AcceptWorkload(id, units.ReqPerSec(head+1000))
		if float64(res.Accepted) > head+1e-6 {
			t.Errorf("site %d accepted %v with headroom %v", i, res.Accepted, head)
		}
		load := float64(pl.SiteLoad(id))
		cap := float64(env.Budgets.SiteCapacity[i])
		if load > cap*(1+1e-9)+1e-9 {
			t.Errorf("site %d load %v over capacity %v after accept", i, load, cap)
		}
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptWorkloadZeroTarget(t *testing.T) {
	pl, _ := planned(t, 26, nil)
	res := pl.AcceptWorkload(0, 0)
	if res.Accepted != 0 || res.Stored != 0 {
		t.Errorf("zero target accepted %v / stored %d", res.Accepted, res.Stored)
	}
}

func TestAcceptWorkloadStorageConstrained(t *testing.T) {
	// With zero MO storage, accepting can only swap — and with nothing
	// stored the swap phase is the only lever. Assert the site never
	// violates storage.
	pl, env := planned(t, 27, func(e *model.Env) {
		e.Budgets = e.Budgets.Scale(e.W, 0.2, 1)
	})
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		pl.AcceptWorkload(id, 5)
		if pl.p.StorageUsed(id) > env.Budgets.Storage[i] {
			t.Errorf("site %d storage violated after accept (%v > %v)",
				i, pl.p.StorageUsed(id), env.Budgets.Storage[i])
		}
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadMessagesCounted(t *testing.T) {
	pl, env := planned(t, 28, nil)
	env.Budgets.RepoCapacity = units.ReqPerSec(float64(pl.RepoLoad()) * 0.6)
	st := pl.Offload(nil)
	// At minimum: initial statuses + per-round request/answer pairs + END.
	min := env.W.NumSites()*2 + 2
	if st.Messages < min {
		t.Errorf("messages = %d, want ≥ %d", st.Messages, min)
	}
}

func TestOffloadL2Path(t *testing.T) {
	// Force the L2 branch: sites with spare processing but zero free
	// storage. After planning, pin each site's storage budget to exactly
	// its usage, then constrain the repository.
	pl, env := planned(t, 29, nil)
	for i := range env.W.Sites {
		env.Budgets.Storage[i] = pl.Placement().StorageUsed(workload.SiteID(i))
	}
	env.Budgets.RepoCapacity = units.ReqPerSec(float64(pl.RepoLoad()) * 0.7)

	var log strings.Builder
	st := pl.Offload(&log)
	if !st.Ran {
		t.Fatal("offload did not run")
	}
	if !strings.Contains(log.String(), "(L2)") {
		t.Fatalf("L2 branch not exercised:\n%s", log.String())
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Storage must never grow past the pinned budgets.
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		if pl.Placement().StorageUsed(id) > env.Budgets.Storage[i] {
			t.Errorf("site %d grew its store beyond the pinned budget", i)
		}
	}
	// L2 sites can still absorb workload by marking already-stored objects
	// local (and by swapping); some progress must have happened.
	if st.MovedLocal <= 0 {
		t.Error("L2 sites moved no workload local")
	}
}
