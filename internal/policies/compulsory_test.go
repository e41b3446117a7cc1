package policies

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// perObject is the reference split: page j's compulsory objects asked one at
// a time, in order, whether they are local.
func perObject(w *workload.Workload, j workload.PageID, local func(idx int) bool) (l, r units.ByteSize, lr int64) {
	for idx, k := range w.Pages[j].Compulsory {
		if local(idx) {
			l += w.ObjectSize(k)
			lr++
		} else {
			r += w.ObjectSize(k)
		}
	}
	return l, r, lr
}

// TestCompulsoryMatchesPerObject: Compulsory answers a view with what asking
// for each compulsory object in turn would — a Static policy with its
// placement's split, and LRU and Threshold with the split, and the cache
// state after it, of a twin served one object at a time.
func TestCompulsoryMatchesPerObject(t *testing.T) {
	w := testWorkload(t)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := core.Plan(env, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Static{NewLocal(w), NewRemote(w), SizeThreshold(w, int64(500*units.KB)), HalfSplit(w),
		NewStatic("planned at 30 % storage", planned)} {
		p := s.Placement()
		for j := range w.Pages {
			pid := workload.PageID(j)
			l, r, lr := s.Compulsory(pid)
			wl, wr, wlr := perObject(w, pid, func(idx int) bool { return p.CompLocal(pid, idx) })
			if l != wl || r != wr || lr != wlr {
				t.Fatalf("%s page %d: Compulsory = (%v, %v, %d), per object (%v, %v, %d)", s.Name(), j, l, r, lr, wl, wr, wlr)
			}
		}
	}

	// Tight storage and capacity: evictions, and LRU's admission gate draws.
	b := model.FullBudgets(w).Scale(w, 0.3, 0.05)
	for seed := uint64(1); seed <= 20; seed++ {
		lruA, errA := NewLRU(w, b, seed)
		lruB, errB := NewLRU(w, b, seed)
		thA, errC := NewThreshold(w, b, 2, 50)
		thB, errD := NewThreshold(w, b, 2, 50)
		for _, err := range []error{errA, errB, errC, errD} {
			if err != nil {
				t.Fatal(err)
			}
		}
		views := rng.New(seed).Split(7)
		for v := 0; v < 2000; v++ {
			pid := workload.PageID(views.IntN(w.NumPages()))
			i, comp := w.Pages[pid].Site, w.Pages[pid].Compulsory
			l, r, lr := lruA.Compulsory(pid)
			wl, wr, wlr := perObject(w, pid, func(idx int) bool { return lruB.serve(i, comp[idx]) })
			if l != wl || r != wr || lr != wlr {
				t.Fatalf("seed %d view %d: LRU Compulsory = (%v, %v, %d), per object (%v, %v, %d)", seed, v, l, r, lr, wl, wr, wlr)
			}
			l, r, lr = thA.Compulsory(pid)
			wl, wr, wlr = perObject(w, pid, func(idx int) bool { return thB.serve(i, comp[idx]) })
			if l != wl || r != wr || lr != wlr {
				t.Fatalf("seed %d view %d: Threshold Compulsory = (%v, %v, %d), per object (%v, %v, %d)", seed, v, l, r, lr, wl, wr, wlr)
			}
			ha, ma, ea, ba := lruA.CacheStats(i)
			hb, mb, eb, bb := lruB.CacheStats(i)
			if ha != hb || ma != mb || ea != eb || ba != bb || lruA.Admission(i) != lruB.Admission(i) {
				t.Fatalf("seed %d view %d site %d: LRU cache (%d, %d, %d, %v) vs per-object twin's (%d, %d, %d, %v)",
					seed, v, i, ha, ma, ea, ba, hb, mb, eb, bb)
			}
			if ra, rb := thA.Replicas(i), thB.Replicas(i); ra != rb {
				t.Fatalf("seed %d view %d site %d: Threshold holds %d replicas, per-object twin %d", seed, v, i, ra, rb)
			}
		}
	}
}
