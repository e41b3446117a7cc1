package core

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/units"
)

// TestPlanAllocs pins the allocations of one constrained plan — the
// plan-constrained benchmark recipe (50 % storage, 70 % capacity, repository
// capped at 90 % of the probe plan's load, Refine on) on the small workload,
// so every phase runs. Measured: 84 allocs/plan, none of them per page
// since the placement holds X and X' in one slab each (316 with a row per
// page; 5,067 with per-site maps, boxed container/heap items and per-call
// slices before that; 102 while the swap phase summed its rates in maps;
// 91 while each planner built its own (site, object) index), and 57,768
// bytes/plan (107,688 with a planner's own index and every heap buffer
// sized for all of the site's references). The index is the workload's:
// only a workload's first constrained plan allocates it, 14 allocs across
// the four sites (its table, and each site's offsets, refs and header).
// The 20 % slack is for the runtime; a map or an interface{} back in the
// greedy loops costs thousands, a per-page allocation hundreds, an index
// rebuilt per plan tens of kilobytes. The same plan from a Partitioned
// skips NewPlanner's tables and copies the page and site cells instead:
// 76 allocs/plan, again none per page (the small workload has 197 pages;
// one more than when each site's heap buffer was sized once for all its
// references, since a site's later, larger heap now grows the buffer). The
// same point continued by a Sweep restores nothing more and refines and
// off-loads on a copy of the carried planner: 58; with the repository
// unconstrained and no refine it finishes in place and clones only the
// placement: 21. A full-budget plan restores nothing and builds no index:
// 42. Only a workload's first plan builds its PARTITION order (its table,
// offsets and permutation, and the sort's buffer); a warm workload's plans
// read it and allocate fewer.
func TestPlanAllocs(t *testing.T) {
	env := genEnv(t, 424242)
	full := *env
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err := Plan(&full, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	order := env.W.PartitionOrder()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Plan(&full, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if cold := float64(m1.Mallocs - m0.Mallocs); cold-allocs < 3 || env.W.PartitionOrder() != order {
		t.Errorf("a warm workload's plan rebuilds its PARTITION order: %v allocs/plan, the first plan %v", allocs, cold)
	}
	const unconstrained = 42
	if allocs > unconstrained*1.2 {
		t.Errorf("full-budget plan: %v allocs/plan, want <= %d + 20%%", allocs, unconstrained)
	}

	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.7)
	runtime.ReadMemStats(&m0)
	probe, _, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	_, refs := env.W.SiteIndex(0)
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := Plan(env, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if cold := float64(m1.Mallocs - m0.Mallocs); cold-allocs < float64(3*env.W.NumSites()) {
		t.Errorf("a warm workload's constrained plan rebuilds its site indexes: %v allocs/plan, the first plan %v", allocs, cold)
	}
	if _, again := env.W.SiteIndex(0); &again[0] != &refs[0] {
		t.Error("a warm workload's constrained plan replaced a site index")
	}
	env.Budgets.RepoCapacity = units.ReqPerSec(0.9 * float64(model.RepoLoad(env, probe)))
	opts := Options{Workers: 1, Refine: true}
	if _, res, _ := Plan(env, opts); !res.Offload.Ran || res.Sites[0].Deallocs == 0 {
		t.Fatalf("recipe no longer exercises restoration and off-loading: %+v", res)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := Plan(env, opts); err != nil {
			t.Fatal(err)
		}
	})
	const measured = 84
	if allocs > measured*1.2 {
		t.Errorf("constrained plan: %v allocs/plan, want <= %d + 20%%", allocs, measured)
	}
	const plans = 20
	runtime.ReadMemStats(&m0)
	for range plans {
		if _, _, err := Plan(env, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	const measuredBytes = 57768
	if bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / plans; bytes > measuredBytes*1.2 {
		t.Errorf("constrained plan: %.0f bytes/plan, want <= %d + 20%%", bytes, measuredBytes)
	}

	pt := Partition(env, opts)
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := pt.Plan(env, opts); err != nil {
			t.Fatal(err)
		}
	})
	const partitioned = 76
	if allocs > partitioned*1.2 {
		t.Errorf("constrained plan from a Partitioned: %v allocs/plan, want <= %d + 20%%", allocs, partitioned)
	}

	sw := pt.Sweep()
	if _, _, err := sw.Plan(env, opts); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := sw.Plan(env, opts); err != nil {
			t.Fatal(err)
		}
	})
	const continued = 58
	if allocs > continued*1.2 {
		t.Errorf("constrained point continued by a Sweep: %v allocs/plan, want <= %d + 20%%", allocs, continued)
	}
	env.Budgets.RepoCapacity = model.Infinite()
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := sw.Plan(env, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const inPlace = 21
	if allocs > inPlace*1.2 {
		t.Errorf("point finished in place by a Sweep: %v allocs/plan, want <= %d + 20%%", allocs, inPlace)
	}
}
