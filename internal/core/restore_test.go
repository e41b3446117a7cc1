package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestRestoreStorageEnforcesBudget(t *testing.T) {
	env := genEnv(t, 11)
	pl := NewPlanner(env)
	pl.PartitionAll()

	// Tighten every site's storage to 30 % of the MO requirement.
	env.Budgets = env.Budgets.Scale(env.W, 0.3, 1)
	dBefore := pl.D()
	totalDeallocs := 0
	for i := range env.W.Sites {
		totalDeallocs += pl.RestoreStorageSite(workload.SiteID(i))
	}
	if totalDeallocs == 0 {
		t.Fatal("expected deallocations at 30% storage")
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		if used, lim := pl.p.StorageUsed(id), env.Budgets.Storage[i]; used > lim {
			t.Errorf("site %d: storage %v over budget %v after restoration", i, used, lim)
		}
	}
	if pl.D() < dBefore-1e-9 {
		// Deallocation should not improve the estimated objective by much —
		// it trades time for space. (Small improvements are possible when a
		// greedy partition left a slightly suboptimal split.)
		t.Logf("note: D improved from %v to %v during restoration", dBefore, pl.D())
	}
}

func TestRestoreStorageNoopWhenFits(t *testing.T) {
	env := genEnv(t, 12)
	pl := NewPlanner(env)
	pl.PartitionAll()
	for i := range env.W.Sites {
		if d := pl.RestoreStorageSite(workload.SiteID(i)); d != 0 {
			t.Errorf("site %d: %d deallocations under full budgets", i, d)
		}
	}
}

func TestRestoreStorageZeroBudgetRemovesEverything(t *testing.T) {
	env := genEnv(t, 13)
	pl := NewPlanner(env)
	pl.PartitionAll()
	env.Budgets = env.Budgets.Scale(env.W, 0, 1) // HTML only
	for i := range env.W.Sites {
		pl.RestoreStorageSite(workload.SiteID(i))
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		if n := pl.p.StoredSet(id).Count(); n != 0 {
			t.Errorf("site %d still stores %d objects at 0%% budget", i, n)
		}
		if pl.p.StorageUsed(id) != env.W.HTMLStorageBytes(id) {
			t.Errorf("site %d storage not reduced to HTML floor", i)
		}
	}
	// With nothing stored, everything is remote: D equals the all-remote D.
	want := model.D(env, model.AllRemote(env.W))
	if got := pl.D(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("0%%-storage D = %v, want all-remote %v", got, want)
	}
}

func TestRestoreStorageRepartitionRecovers(t *testing.T) {
	// Hand-built: two compulsory objects; partition keeps the big one
	// local and the small one remote. Storage forces the big one out; the
	// re-partition step should then pull the (still affordable) small one
	// local if it helps. Sizes chosen so both can't fit.
	w := &workload.Workload{
		Config: workload.Config{Alpha1: 1, Alpha2: 1},
		Objects: []workload.Object{
			{ID: 0, Size: 100 * units.KB},
			{ID: 1, Size: 60 * units.KB},
		},
		Pages: []workload.Page{{
			ID: 0, Site: 0, HTMLSize: 10 * units.KB, Freq: 1,
			Compulsory: []workload.ObjectID{0, 1},
		}},
		Sites: []workload.Site{{ID: 0, Pages: []workload.PageID{0}, Objects: []workload.ObjectID{0, 1}, Capacity: 1000}},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	est := &netsim.Estimates{Sites: []netsim.SiteEstimate{{
		LocalRate: 10 * units.KBPerSec,
		RepoRate:  5 * units.KBPerSec,
		LocalOvhd: 1,
		RepoOvhd:  2,
	}}}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(env)
	pl.PartitionSite(0)
	// partition: local=2,remote=2; 100K: 22 vs 12 → local; 60K: 2+12=14 vs 12+6=18 → remote.
	if !pl.p.CompLocal(0, 0) || pl.p.CompLocal(0, 1) {
		t.Fatalf("unexpected partition: %v %v", pl.p.CompLocal(0, 0), pl.p.CompLocal(0, 1))
	}

	// Storage budget: HTML + 70 KB — the 100 KB replica must go; the 60 KB
	// object fits but is not stored... dealloc of object 0 leaves nothing
	// stored, so the improve step has nothing local to flip. Verify the
	// placement is consistent and within budget anyway.
	env.Budgets.Storage[0] = 10*units.KB + 70*units.KB
	pl.RestoreStorageSite(0)
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if pl.p.StorageUsed(0) > env.Budgets.Storage[0] {
		t.Error("storage still over budget")
	}
	if pl.p.IsStored(0, 0) {
		t.Error("100 KB object should have been deallocated")
	}
}

func TestRestoreProcessingEnforcesCapacity(t *testing.T) {
	env := genEnv(t, 14)
	pl := NewPlanner(env)
	pl.PartitionAll()

	// Squeeze capacity to 15 % (≈22 req/s against an all-local demand of
	// ≈40 req/s in SmallConfig) — this must force flips.
	env.Budgets = env.Budgets.Scale(env.W, 1, 0.15)
	flips := 0
	for i := range env.W.Sites {
		flips += pl.RestoreProcessingSite(workload.SiteID(i))
	}
	if flips == 0 {
		t.Fatal("expected processing flips at 40% capacity")
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		load, cap := float64(pl.SiteLoad(id)), float64(env.Budgets.SiteCapacity[i])
		if load > cap*(1+1e-9)+1e-9 {
			t.Errorf("site %d: load %v over capacity %v", i, load, cap)
		}
	}
}

func TestRestoreProcessingInfeasibleFloor(t *testing.T) {
	// Capacity below the HTML-request floor: restoration moves every MO
	// remote and stops at the floor.
	env := genEnv(t, 15)
	pl := NewPlanner(env)
	pl.PartitionAll()
	env.Budgets = env.Budgets.Scale(env.W, 1, 0) // zero capacity
	for i := range env.W.Sites {
		pl.RestoreProcessingSite(workload.SiteID(i))
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		// Load should equal the page-request rate (HTML only).
		var htmlRate float64
		for _, pid := range env.W.Sites[i].Pages {
			htmlRate += float64(env.W.Pages[pid].Freq)
		}
		if got := float64(pl.SiteLoad(id)); math.Abs(got-htmlRate) > 1e-9 {
			t.Errorf("site %d: floor load %v, want HTML-only %v", i, got, htmlRate)
		}
		// Everything must be remote and the dead replicas deallocated.
		for _, pid := range env.W.Sites[i].Pages {
			pg := &env.W.Pages[pid]
			for idx := range pg.Compulsory {
				if pl.p.CompLocal(pid, idx) {
					t.Fatalf("page %d still downloads a compulsory object locally", pid)
				}
			}
			for idx := range pg.Optional {
				if pl.p.OptLocal(pid, idx) {
					t.Fatalf("page %d still downloads an optional object locally", pid)
				}
			}
		}
		if n := pl.p.StoredSet(id).Count(); n != 0 {
			t.Errorf("site %d: %d unused replicas survive zero-capacity restoration", i, n)
		}
	}
}

func TestRestoreProcessingNoopUnderCapacity(t *testing.T) {
	env := genEnv(t, 16)
	pl := NewPlanner(env)
	pl.PartitionAll()
	for i := range env.W.Sites {
		if f := pl.RestoreProcessingSite(workload.SiteID(i)); f != 0 {
			t.Errorf("site %d: %d flips under default capacity", i, f)
		}
	}
}

func TestDeallocCostAdditive(t *testing.T) {
	// deallocCost must equal the actual ΔD of deallocate.
	env := genEnv(t, 17)
	pl := NewPlanner(env)
	pl.PartitionAll()
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		checked := 0
		pl.p.StoredSet(id).ForEach(func(kk int) bool {
			k := workload.ObjectID(kk)
			cost := pl.deallocCost(id, k)
			before := pl.D()
			pl.deallocate(id, k)
			got := pl.D() - before
			if math.Abs(got-cost) > 1e-6*(1+math.Abs(cost)) {
				t.Errorf("site %d object %d: deallocCost %v, actual ΔD %v", i, k, cost, got)
			}
			checked++
			return checked < 5
		})
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestImprovePageOnlyImproves(t *testing.T) {
	env := genEnv(t, 18)
	pl := NewPlanner(env)
	pl.PartitionAll()
	// Force a degradation: flip the largest local object of each first page
	// remote (keeping it stored), then improvePage must re-flip it.
	for i := range env.W.Sites {
		pid := env.W.Sites[i].Pages[0]
		pg := &env.W.Pages[pid]
		for idx := range pg.Compulsory {
			if pl.p.CompLocal(pid, idx) {
				before := pl.D()
				pl.flipComp(pid, idx, false)
				if pl.D() < before {
					continue // was actually an improvement; nothing to test
				}
				degraded := pl.D()
				flips := pl.improvePage(pid)
				if flips == 0 {
					t.Errorf("site %d page %d: improvePage recovered nothing", i, pid)
				}
				// improvePage never increases D; it may settle in a 1-flip
				// local optimum different from (and slightly worse than)
				// the pre-degradation assignment.
				if pl.D() > degraded+1e-9 {
					t.Errorf("site %d page %d: improvePage increased D (%v > %v)", i, pid, pl.D(), degraded)
				}
				break
			}
		}
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRefineSiteImproves(t *testing.T) {
	env := genEnv(t, 59)
	env.Budgets = env.Budgets.Scale(env.W, 0.4, 1)
	base := NewPlanner(env)
	base.PartitionAll()
	for i := range env.W.Sites {
		base.RestoreStorageSite(workload.SiteID(i))
		base.RestoreProcessingSite(workload.SiteID(i))
	}
	dBefore := base.D()

	flips := 0
	for i := range env.W.Sites {
		flips += base.RefineSite(workload.SiteID(i))
	}
	if flips == 0 {
		t.Fatal("refinement found nothing at 40% storage (expected leftover space)")
	}
	if base.D() >= dBefore {
		t.Errorf("refinement did not reduce D: %v -> %v", dBefore, base.D())
	}
	if err := base.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Constraints still hold.
	r := model.Evaluate(env, base.Placement())
	for _, s := range r.Sites {
		if !s.StorageOK() || !s.LoadOK() {
			t.Errorf("site %d violated after refinement", s.Site)
		}
	}
	// Idempotent: a second sweep finds nothing.
	again := 0
	for i := range env.W.Sites {
		again += base.RefineSite(workload.SiteID(i))
	}
	if again != 0 {
		t.Errorf("second refinement flipped %d more", again)
	}
}

func TestPlanWithRefineOption(t *testing.T) {
	env := genEnv(t, 60)
	env.Budgets = env.Budgets.Scale(env.W, 0.4, 1)
	_, plain, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	env2 := genEnv(t, 60)
	env2.Budgets = env2.Budgets.Scale(env2.W, 0.4, 1)
	_, refined, err := Plan(env2, Options{Workers: 1, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.D > plain.D {
		t.Errorf("refined plan worse: %v vs %v", refined.D, plain.D)
	}
	if !refined.Feasible {
		t.Error("refined plan infeasible")
	}
}

// improvePageScan is improvePage as it was before the stored-but-remote
// index: a scan of every reference of the page, repeated until no flip
// improves D. It survives here as the reference the index walk is held to.
func improvePageScan(pl *Planner, j workload.PageID) (flips int) {
	pg := &pl.env.W.Pages[j]
	site := pg.Site
	for {
		improved := false
		for idx, k := range pg.Compulsory {
			if !pl.p.CompLocal(j, idx) && pl.p.IsStored(site, k) &&
				pl.previewFlipComp(j, idx, true) < -1e-12 {
				pl.flipComp(j, idx, true)
				flips++
				improved = true
			}
		}
		for idx, l := range pg.Optional {
			if !pl.p.OptLocal(j, idx) && pl.p.IsStored(site, l.Object) &&
				pl.previewFlipOpt(j, idx, true) < -1e-12 {
				pl.flipOpt(j, idx, true)
				flips++
				improved = true
			}
		}
		if !improved {
			return flips
		}
	}
}

// sameState fails unless the two planners hold the same placement and the
// same bits in every per-site float accumulator.
func sameState(t *testing.T, a, b *Planner, label string) {
	t.Helper()
	if !a.p.Equal(b.p) {
		t.Fatalf("%s: placements differ", label)
	}
	if !slices.Equal(a.d1Site, b.d1Site) || !slices.Equal(a.d2Site, b.d2Site) ||
		!slices.Equal(a.siteLocalLoad, b.siteLocalLoad) || !slices.Equal(a.siteRepoLoad, b.siteRepoLoad) {
		t.Fatalf("%s: accumulators differ: D1 %v vs %v, D2 %v vs %v", label, a.D1(), b.D1(), a.D2(), b.D2())
	}
}

// improveBoth re-partitions every page — a through the index, b by the
// scan — and demands the same flips page by page and the same state after.
func improveBoth(t *testing.T, a, b *Planner, label string) (flips int) {
	t.Helper()
	sameState(t, a, b, label+", before improving")
	for _, p := range []*Planner{a, b} {
		if err := p.VerifyConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for j := range a.env.W.Pages {
		fa, fb := a.improvePage(workload.PageID(j)), improvePageScan(b, workload.PageID(j))
		if fa != fb {
			t.Fatalf("%s: page %d: index walk made %d flips, full scan %d", label, j, fa, fb)
		}
		flips += fa
	}
	sameState(t, a, b, label)
	return flips
}

// restoreStorageBoth is RestoreStorageSite's loop run on two planners in
// lockstep, a re-partitioning through the index and b by the scan, compared
// after every deallocation.
func restoreStorageBoth(t *testing.T, a, b *Planner, i workload.SiteID) (deallocs, flips int) {
	t.Helper()
	heapOf := func(pl *Planner) (*lazyHeap, func(int64) (float64, bool)) {
		cost := func(k workload.ObjectID) float64 {
			return pl.deallocCost(i, k) / float64(pl.env.W.ObjectSize(k))
		}
		items := pl.candidates(i, pl.p.StoredSet(i).Count())
		pl.p.StoredSet(i).ForEach(func(k int) bool {
			items = append(items, heapItem{key: cost(workload.ObjectID(k)), id: int64(k)})
			return true
		})
		return newLazyHeap(items), func(id int64) (float64, bool) {
			if !pl.p.IsStored(i, workload.ObjectID(id)) {
				return 0, false
			}
			return cost(workload.ObjectID(id)), true
		}
	}
	ha, freshA := heapOf(a)
	hb, freshB := heapOf(b)
	for a.p.StorageUsed(i) > a.env.Budgets.Storage[i] {
		ka, _, okA := ha.popFresh(freshA)
		kb, _, okB := hb.popFresh(freshB)
		if ka != kb || okA != okB {
			t.Fatalf("site %d deallocation %d: index planner evicts %d (%v), scan planner %d (%v)", i, deallocs, ka, okA, kb, okB)
		}
		if !okA {
			break
		}
		pagesA, pagesB := a.deallocate(i, workload.ObjectID(ka)), b.deallocate(i, workload.ObjectID(kb))
		if !slices.Equal(pagesA, pagesB) {
			t.Fatalf("site %d deallocation %d: affected pages %v vs %v", i, deallocs, pagesA, pagesB)
		}
		for _, j := range pagesA {
			fa, fb := a.improvePage(j), improvePageScan(b, j)
			if fa != fb {
				t.Fatalf("site %d deallocation %d page %d: index walk made %d flips, full scan %d", i, deallocs, j, fa, fb)
			}
			flips += fa
		}
		deallocs++
		sameState(t, a, b, fmt.Sprintf("site %d after deallocation %d", i, deallocs))
	}
	return deallocs, flips
}

// TestImprovePageMatchesFullScan drives an index-walking planner and a
// full-scanning one through every phase that writes the stored-but-remote
// index — PARTITION, storage restoration, processing restoration,
// AcceptWorkload through its swap phase, AdmitPage on a used planner,
// AdoptPlacement — and holds them to the same flips, placement and
// accumulator bits throughout.
func TestImprovePageMatchesFullScan(t *testing.T) {
	var flips, swapped int
	for _, seed := range []uint64{3, 17, 58, 424242} {
		env := genEnv(t, seed)
		env.Budgets = env.Budgets.Scale(env.W, 0.4, 1)
		a, b, whole := NewPlanner(env), NewPlanner(env), NewPlanner(env)
		for _, pl := range []*Planner{a, b, whole} {
			if seed%2 == 0 {
				pl.PartitionAll()
			} else {
				pl.PartitionParallel(2, nil) // Plan's path: the reduce stores
			}
		}
		flips += improveBoth(t, a, b, "after PARTITION")

		for i := range env.W.Sites {
			d, f := restoreStorageBoth(t, a, b, workload.SiteID(i))
			if d == 0 {
				t.Fatalf("seed %d site %d: no deallocation at 40%% storage", seed, i)
			}
			flips += f
			if got := whole.RestoreStorageSite(workload.SiteID(i)); got != d {
				t.Fatalf("seed %d site %d: RestoreStorageSite made %d deallocations, the lockstep loop %d", seed, i, got, d)
			}
		}
		sameState(t, a, whole, "lockstep loop vs RestoreStorageSite")
		flips += improveBoth(t, a, b, "after storage restoration")

		// Processing restoration at 60 % of the load each site carries now.
		for i := range env.W.Sites {
			env.Budgets.SiteCapacity[i] = 0.6 * a.SiteLoad(workload.SiteID(i))
			if fa, fb := a.RestoreProcessingSite(workload.SiteID(i)), b.RestoreProcessingSite(workload.SiteID(i)); fa != fb || fa == 0 {
				t.Fatalf("seed %d site %d: processing flips %d vs %d", seed, i, fa, fb)
			}
		}
		flips += improveBoth(t, a, b, "after processing restoration")

		// Off-load acceptance with the capacity back and no free storage:
		// flipping runs dry and the swap phase takes over.
		for i := range env.W.Sites {
			id := workload.SiteID(i)
			env.Budgets.SiteCapacity[i] = units.ReqPerSec(env.W.Sites[i].Capacity)
			env.Budgets.Storage[i] = a.p.StorageUsed(id)
			ra, rb := a.AcceptWorkload(id, 1e9), b.AcceptWorkload(id, 1e9)
			if ra != rb {
				t.Fatalf("seed %d site %d: accept results differ: %+v vs %+v", seed, i, ra, rb)
			}
			swapped += ra.Swapped
		}
		flips += improveBoth(t, a, b, "after AcceptWorkload")

		// Re-admit every third page on the used planners (repair's move),
		// then restore the storage the admissions overdrew.
		for j := 0; j < env.W.NumPages(); j += 3 {
			a.AdmitPage(workload.PageID(j))
			b.AdmitPage(workload.PageID(j))
		}
		flips += improveBoth(t, a, b, "after AdmitPage")
		for i := range env.W.Sites {
			_, f := restoreStorageBoth(t, a, b, workload.SiteID(i))
			flips += f
		}

		c, d := NewPlanner(env), NewPlanner(env)
		if err := errors.Join(c.AdoptPlacement(a.p), d.AdoptPlacement(b.p)); err != nil {
			t.Fatal(err)
		}
		if !c.p.Equal(a.p) {
			t.Fatal("adopted placement differs from its source")
		}
		flips += improveBoth(t, c, d, "after AdoptPlacement")
	}
	if flips == 0 || swapped == 0 {
		t.Errorf("drive made %d re-partitioning flips and %d swaps; it must exercise both", flips, swapped)
	}
}
