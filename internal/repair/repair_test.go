package repair

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// scaffold builds a planned environment: a small seeded workload, drawn
// estimates, constrained budgets (50 % MO storage so restoration has work
// to do) and the full paper pipeline's placement over it.
func scaffold(t testing.TB, seed uint64) (*model.Env, *model.Placement) {
	t.Helper()
	w := workload.MustGenerate(workload.SmallConfig(), seed)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := model.FullBudgets(w).Scale(w, 0.5, 1)
	env, err := model.NewEnv(w, est, b)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env, p
}

// TestRepairWorkersDeterminismProperty is the acceptance property: for a
// given (workload seed, down-set), Compute emits byte-identical plans at
// every Workers count. Run under -race in CI's heal stage.
func TestRepairWorkersDeterminismProperty(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		env, p := scaffold(t, seed)
		down := []workload.SiteID{0}

		ref, err := Compute(env, p, down, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refBytes, err := ref.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			rp, err := Compute(env, p, down, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got, err := rp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refBytes, got) {
				t.Fatalf("seed %d: workers=%d plan differs from workers=1", seed, workers)
			}
		}
	}
}

// TestRepairPlanShape checks the structural promises: every dead page is
// re-homed to a survivor, the repaired placement satisfies the model
// invariants, the dead site stores nothing and serves nothing, and the
// delta's copy lists are exactly the survivors' store growth.
func TestRepairPlanShape(t *testing.T) {
	env, p := scaffold(t, 7)
	dead := workload.SiteID(1)
	rp, err := Compute(env, p, []workload.SiteID{dead}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if err := rp.Placement.CheckInvariants(); err != nil {
		t.Fatalf("repaired placement: %v", err)
	}
	if err := rp.Env.W.Validate(); err != nil {
		t.Fatalf("re-homed workload: %v", err)
	}
	if got := rp.Placement.StoredSet(dead).Count(); got != 0 {
		t.Fatalf("dead site still stores %d objects", got)
	}
	if len(rp.Env.W.Sites[dead].Pages) != 0 {
		t.Fatalf("dead site still hosts %d pages", len(rp.Env.W.Sites[dead].Pages))
	}

	moved := make(map[workload.PageID]bool)
	for _, r := range rp.Delta.Rehomed {
		if r.From != dead {
			t.Fatalf("re-home of page %d claims source %d, want %d", r.Page, r.From, dead)
		}
		if r.To == dead {
			t.Fatalf("page %d re-homed onto the dead site", r.Page)
		}
		if rp.Env.W.Pages[r.Page].Site != r.To {
			t.Fatalf("page %d: workload says site %d, delta says %d", r.Page, rp.Env.W.Pages[r.Page].Site, r.To)
		}
		moved[r.Page] = true
	}
	for _, pid := range env.W.Sites[dead].Pages {
		if !moved[pid] {
			t.Fatalf("dead page %d not re-homed", pid)
		}
	}

	// Copies = repaired stores minus original stores, survivors only.
	var copyTotal int
	for _, c := range rp.Delta.Copies {
		if c.Site == dead {
			t.Fatal("copy order addressed to the dead site")
		}
		for _, k := range c.Objects {
			if p.IsStored(c.Site, k) {
				t.Fatalf("site %d ordered to copy object %d it already stores", c.Site, k)
			}
			if !rp.Placement.IsStored(c.Site, k) {
				t.Fatalf("site %d ordered to copy object %d the repaired placement does not store", c.Site, k)
			}
		}
		copyTotal += len(c.Objects)
	}
	var growth int
	for i := 0; i < env.W.NumSites(); i++ {
		id := workload.SiteID(i)
		if id == dead {
			continue
		}
		rp.Placement.StoredSet(id).ForEach(func(k int) bool {
			if !p.IsStored(id, workload.ObjectID(k)) {
				growth++
			}
			return true
		})
	}
	if copyTotal != growth {
		t.Fatalf("copy orders cover %d objects, store growth is %d", copyTotal, growth)
	}
}

// TestRepairObjectiveOrdering checks the predicted objectives are coherent:
// the unrepaired degraded state is worse than healthy, and the repair
// strictly improves on it (on these workloads the survivors have headroom,
// so local service beats the all-remote repository chain).
func TestRepairObjectiveOrdering(t *testing.T) {
	env, p := scaffold(t, 13)
	rp, err := Compute(env, p, []workload.SiteID{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := rp.Delta
	if !(d.DBefore > d.DHealthy) {
		t.Fatalf("degraded D %.4f not worse than healthy %.4f", d.DBefore, d.DHealthy)
	}
	if !(d.DAfter < d.DBefore) {
		t.Fatalf("repaired D %.4f not better than degraded %.4f", d.DAfter, d.DBefore)
	}
	if model.D(rp.Env, rp.Placement) != d.DAfter {
		t.Fatal("DAfter does not match a fresh model evaluation of the repaired placement")
	}
}

// TestRecoverSymmetry checks the return journey: Recover's re-homes invert
// the repair's, its copies restore exactly the survivor replicas the repair
// dropped, and its objective endpoints swap back to healthy.
func TestRecoverSymmetry(t *testing.T) {
	env, p := scaffold(t, 21)
	dead := workload.SiteID(2)
	rp, err := Compute(env, p, []workload.SiteID{dead}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := rp.Recover()

	if len(rec.Rehomed) != len(rp.Delta.Rehomed) {
		t.Fatalf("recover re-homes %d pages, repair moved %d", len(rec.Rehomed), len(rp.Delta.Rehomed))
	}
	for i, r := range rec.Rehomed {
		f := rp.Delta.Rehomed[i]
		if r.Page != f.Page || r.From != f.To || r.To != f.From {
			t.Fatalf("recover re-home %v does not invert %v", r, f)
		}
	}
	for _, c := range rec.Copies {
		for _, k := range c.Objects {
			if !p.IsStored(c.Site, k) {
				t.Fatalf("recover orders site %d to copy object %d the original placement never stored", c.Site, k)
			}
			if rp.Placement.IsStored(c.Site, k) {
				t.Fatalf("recover orders site %d to copy object %d the repaired placement kept", c.Site, k)
			}
		}
	}
	if rec.DBefore != rp.Delta.DAfter || rec.DAfter != rp.Delta.DHealthy {
		t.Fatal("recover objective endpoints are not the repair's reversed")
	}

	oe, op := rp.Original()
	if oe != env || op != p {
		t.Fatal("Original does not return the pre-failure env/placement")
	}
}

// TestRepairRejectsBadDownSets covers the error paths.
func TestRepairRejectsBadDownSets(t *testing.T) {
	env, p := scaffold(t, 5)
	if _, err := Compute(env, p, nil, Options{}); err == nil {
		t.Fatal("empty down set accepted")
	}
	if _, err := Compute(env, p, []workload.SiteID{workload.SiteID(env.W.NumSites())}, Options{}); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	all := make([]workload.SiteID, env.W.NumSites())
	for i := range all {
		all[i] = workload.SiteID(i)
	}
	if _, err := Compute(env, p, all, Options{}); err == nil {
		t.Fatal("all-sites-down accepted")
	}
}

// TestRepairMultiSiteDown exercises a two-site outage: both sites' pages
// re-homed, plan still invariant-clean and encodable.
func TestRepairMultiSiteDown(t *testing.T) {
	env, p := scaffold(t, 31)
	if env.W.NumSites() < 3 {
		t.Skip("need 3 sites")
	}
	rp, err := Compute(env, p, []workload.SiteID{0, 2, 0}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Down) != 2 || rp.Down[0] != 0 || rp.Down[1] != 2 {
		t.Fatalf("down set not deduped/sorted: %v", rp.Down)
	}
	if err := rp.Placement.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Encode(); err != nil {
		t.Fatal(err)
	}
}

// TestDownFreq pins the re-homed traffic accounting.
func TestDownFreq(t *testing.T) {
	env, _ := scaffold(t, 11)
	down := map[workload.SiteID]bool{1: true}
	var want float64
	for j := range env.W.Pages {
		if env.W.Pages[j].Site == 1 {
			want += float64(env.W.Pages[j].Freq)
		}
	}
	if got := DownFreq(env.W, down); got != want {
		t.Fatalf("DownFreq = %v, want %v", got, want)
	}
}

// refExtendPool is the map-and-sort pool union Compute's dense mark
// replaced, kept as the reference the re-homed pools are checked against.
func refExtendPool(w *workload.Workload, pool []workload.ObjectID, pages []workload.PageID) []workload.ObjectID {
	seen := make(map[workload.ObjectID]bool, len(pool))
	out := append([]workload.ObjectID(nil), pool...)
	for _, k := range pool {
		seen[k] = true
	}
	for _, pid := range pages {
		pg := &w.Pages[pid]
		for _, k := range pg.Compulsory {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		for _, l := range pg.Optional {
			if !seen[l.Object] {
				seen[l.Object] = true
				out = append(out, l.Object)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// refDegradedD is the degraded objective as its own pass over the pages:
// the reference for Delta.DBefore.
func refDegradedD(env *model.Env, p *model.Placement, down map[workload.SiteID]bool) float64 {
	w := env.W
	var d1, d2 float64
	for j := range w.Pages {
		pid := workload.PageID(j)
		pg := &w.Pages[j]
		f := float64(pg.Freq)
		if !down[pg.Site] {
			d1 += f * float64(model.PageTime(env, p, pid))
			d2 += f * float64(model.PageOptionalTime(env, p, pid))
			continue
		}
		est := env.Est.Sites[pg.Site]
		bytes := pg.HTMLSize
		for _, k := range pg.Compulsory {
			bytes += w.ObjectSize(k)
		}
		d1 += f * float64(est.RepoOvhd+est.RepoRate.TransferTime(bytes))
		for _, l := range pg.Optional {
			d2 += f * l.Prob * float64(est.RepoOvhd+est.RepoRate.TransferTime(w.ObjectSize(l.Object)))
		}
	}
	return env.Alpha1*d1 + env.Alpha2*d2
}

// TestComputeMatchesReferences pins Compute's shortcuts to the formulas
// they replace: for every single-site outage over several workloads, each
// re-homed pool is the reference union of the site's pool and its new
// pages' references, and DHealthy, DBefore and DAfter are bit-identical to
// model.D and the separate degraded pass.
func TestComputeMatchesReferences(t *testing.T) {
	for _, seed := range []uint64{3, 8, 42} {
		env, p := scaffold(t, seed)
		w := env.W
		for i := 0; i < w.NumSites(); i++ {
			down := workload.SiteID(i)
			rp, err := Compute(env, p, []workload.SiteID{down}, Options{Workers: 1})
			if err != nil {
				t.Fatalf("seed %d down %d: %v", seed, down, err)
			}
			for s := range rp.Env.W.Sites {
				got := rp.Env.W.Sites[s].Objects
				want := refExtendPool(w, w.Sites[s].Objects, rp.Env.W.Sites[s].Pages)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d down %d: site %d pool %v, reference %v", seed, down, s, got, want)
				}
			}
			d := rp.Delta
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"DHealthy", d.DHealthy, model.D(env, p)},
				{"DBefore", d.DBefore, refDegradedD(env, p, map[workload.SiteID]bool{down: true})},
				{"DAfter", d.DAfter, model.D(rp.Env, rp.Placement)},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("seed %d down %d: %s = %v, reference %v", seed, down, c.name, c.got, c.want)
				}
			}
		}
	}
}
