package core

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// ref id encoding for the processing-restoration heap: a (page, idx,
// optional) triple packed into an int64. workload.Validate holds every
// page's lists to the PageRefBits an idx gets.
func encodeRef(j workload.PageID, idx int, optional bool) int64 {
	id := int64(j)<<(workload.PageRefBits+1) | int64(idx)<<1
	if optional {
		id |= 1
	}
	return id
}

func decodeRef(id int64) (workload.PageID, int, bool) {
	return workload.PageID(id >> (workload.PageRefBits + 1)), int((id >> 1) & (1<<workload.PageRefBits - 1)), id&1 == 1
}

// deallocCost returns the increase in D caused by deallocating object k at
// site i: every page currently downloading k locally is forced to the
// repository. References live on distinct pages (an object appears at most
// once per page), so the per-reference previews are exactly additive.
func (pl *Planner) deallocCost(i workload.SiteID, k workload.ObjectID) float64 {
	cost := 0.0
	for _, r := range pl.refsOf(i, k) {
		cost += pl.previewFlip(r.Page, int(r.Idx), r.Optional, false) // 0 for a remote one
	}
	return cost
}

// deallocate removes object k from site i's store, flipping every local
// reference to the repository first. It returns the affected pages, in the
// site's scratch buffer: valid until the site's next deallocation.
func (pl *Planner) deallocate(i workload.SiteID, k workload.ObjectID) []workload.PageID {
	affected := pl.scratch[i].affected[:0]
	for _, r := range pl.refsOf(i, k) {
		if pl.isLocal(r.Page, int(r.Idx), r.Optional) {
			pl.flip(r.Page, int(r.Idx), r.Optional, false)
			affected = append(affected, r.Page)
		}
	}
	pl.unstore(i, k)
	pl.scratch[i].affected = affected
	return affected
}

// improvePage re-examines page j after a deallocation disturbed its chains
// (Section 4.2's re-partitioning step): objects that are stored at the
// page's site but marked for repository download may now reduce the
// retrieval time if flipped local. Flips repeat until none improves D, so
// the page ends in a local optimum of single flips. Only already-stored
// objects are considered — this step never allocates storage. It walks the
// page's stored-but-remote index in the order a scan of the page finds those
// references (compulsory by idx, then optional by idx; a flip clears only
// its own bit), so the flips and the float accumulators they feed are the
// scan's.
func (pl *Planner) improvePage(j workload.PageID) (flips int) {
	for {
		improved := false
		for w, word := range pl.idle[pl.idleOff[j]:pl.idleOff[j+1]] {
			for ; word != 0; word &= word - 1 {
				idx, optional := pl.refAt(j, w<<6+bits.TrailingZeros64(word))
				if pl.previewFlip(j, idx, optional, true) < -1e-12 {
					pl.flip(j, idx, optional, true)
					flips++
					improved = true
				}
			}
		}
		if !improved {
			return flips
		}
	}
}

// siteRestore is one site's restoration in progress: each phase's lazy heap
// and what the phases did so far. Plan restores a site from a zero
// siteRestore and drops it; a Sweep keeps one per site between its points,
// so a tighter budget runs the same greedy loops further from where the
// looser one stopped. Both heaps are built in the site's scratch buffer, so
// building the processing heap drops the storage heap: once processing
// restoration has started, storage restoration must not pop again (Sweep
// restarts when such a site's storage budget falls).
type siteRestore struct {
	store, proc     lazyHeap
	deallocs, flips int
}

// RestoreStorageSite enforces Eq. 10 at site i by greedy deallocation: while
// the store exceeds the budget, it removes the stored object with the least
// ΔD per byte freed (the amortization the paper prescribes for judicious
// treatment of large objects), then re-partitions the pages that lost a
// local download. Returns the number of deallocations.
func (pl *Planner) RestoreStorageSite(i workload.SiteID) (deallocs int) {
	var r siteRestore
	pl.restoreStorage(i, &r)
	return r.deallocs
}

// restoreStorage runs RestoreStorageSite's loop on r, building its heap on
// the first pop.
func (pl *Planner) restoreStorage(i workload.SiteID, r *siteRestore) {
	budget := pl.env.Budgets.Storage[i]
	if pl.p.StorageUsed(i) <= budget {
		return
	}

	h := &r.store
	if !h.built() {
		items := pl.candidates(i, pl.p.StoredSet(i).Count())
		pl.p.StoredSet(i).ForEach(func(kk int) bool {
			k := workload.ObjectID(kk)
			size := float64(pl.env.W.ObjectSize(k))
			items = append(items, heapItem{key: pl.deallocCost(i, k) / size, id: int64(k)})
			return true
		})
		*h = lazyHeap{items: items}
		h.heapify()
	}

	recompute := func(id int64) (float64, bool) {
		k := workload.ObjectID(id)
		if !pl.p.IsStored(i, k) {
			return 0, false
		}
		return pl.deallocCost(i, k) / float64(pl.env.W.ObjectSize(k)), true
	}

	for pl.p.StorageUsed(i) > budget {
		id, _, ok := h.popFresh(recompute)
		if !ok {
			// Nothing left to deallocate; only HTML remains. The budget is
			// below the HTML floor — report infeasibility via the caller's
			// constraint check.
			return
		}
		affected := pl.deallocate(i, workload.ObjectID(id))
		r.deallocs++
		if !pl.NoRepartition {
			for _, j := range affected {
				pl.improvePage(j)
			}
		}
	}
}

// RestoreProcessingSite enforces Eq. 8 at site i: while the site's request
// load exceeds its capacity, the (page, object) local download whose move to
// the repository costs the least ΔD per req/s freed is flipped remote. An
// object left with no local marks is deallocated, further freeing storage
// (Section 4.2). Returns the number of flips.
func (pl *Planner) RestoreProcessingSite(i workload.SiteID) (flips int) {
	var r siteRestore
	pl.restoreProcessing(i, &r)
	return r.flips
}

// restoreProcessing runs RestoreProcessingSite's loop on r, building its
// heap on the first pop.
func (pl *Planner) restoreProcessing(i workload.SiteID, r *siteRestore) {
	capacity := float64(pl.env.Budgets.SiteCapacity[i])
	if math.IsInf(capacity, 1) || pl.siteLocalLoad[i] <= capacity {
		return
	}

	key := func(j workload.PageID, idx int, optional bool) float64 {
		_, freed := pl.refOf(j, idx, optional)
		return pl.previewFlip(j, idx, optional, false) / freed
	}
	h := &r.proc
	if !h.built() {
		r.store = lazyHeap{} // its buffer is about to hold this heap
		*h = pl.refHeap(i, true, key)
	}
	recompute := func(id int64) (float64, bool) {
		j, idx, optional := decodeRef(id)
		if !pl.isLocal(j, idx, optional) {
			return 0, false
		}
		return key(j, idx, optional), true
	}

	for pl.siteLocalLoad[i] > capacity {
		id, _, ok := h.popFresh(recompute)
		if !ok {
			// Every MO download already goes to the repository; the residual
			// load is the HTML requests themselves, which cannot move.
			return
		}
		j, idx, optional := decodeRef(id)
		k, _ := pl.refOf(j, idx, optional)
		pl.flip(j, idx, optional, false)
		r.flips++
		if pl.localMarks[pl.slot(i, k)] == 0 {
			pl.unstore(i, k)
		}
	}
}

// RestoreSites runs constraint restoration on each of the given sites, up
// to workers at a time: RestoreStorageSite (Eq. 10), then
// RestoreProcessingSite (Eq. 8). The sites must be distinct; each one's
// greedy loops are sequential and touch only that site's cells (see
// parallel.go), so the outcome is the same at every worker count. It
// returns the per-site dealloc and flip counts in the order of sites. A
// non-nil parent gains one child span per phase (trace.SpanStorageRestore,
// SpanProcessingRestore) carrying the phase's busy time summed over sites
// and its counter; the phases interleave across workers, so each span's
// wall clock covers the whole call.
func (pl *Planner) RestoreSites(sites []workload.SiteID, workers int, parent *trace.Active) []SiteStats {
	return pl.restoreSites(sites, nil, workers, parent)
}

// restoreSites is RestoreSites continuing the restorations in carry, which
// is indexed by site ID; a nil carry starts every site afresh. The counts
// it returns are carry's totals.
func (pl *Planner) restoreSites(sites []workload.SiteID, carry []siteRestore, workers int, parent *trace.Active) []SiteStats {
	spStore := parent.StartChild(trace.SpanStorageRestore)
	spProc := parent.StartChild(trace.SpanProcessingRestore)

	// One fan-out feeds two spans, so the laps are per site and phase
	// here, not per worker in fanOut.
	stats := make([]SiteStats, len(sites))
	fanOut(workers, len(sites), nil, func(s int) {
		i := sites[s]
		var fresh siteRestore
		r := &fresh
		if carry != nil {
			r = &carry[i]
		}
		t := lap(spStore, time.Time{})
		pl.restoreStorage(i, r)
		t = lap(spStore, t)
		pl.restoreProcessing(i, r)
		lap(spProc, t)
		stats[s] = SiteStats{Site: i, Deallocs: r.deallocs, ProcFlips: r.flips}
	})

	if parent != nil {
		var deallocs, flips int64
		for _, s := range stats {
			deallocs += int64(s.Deallocs)
			flips += int64(s.ProcFlips)
		}
		spStore.SetAttr(trace.I(trace.AttrDeallocs, deallocs))
		spProc.SetAttr(trace.I(trace.AttrProcFlips, flips))
	}
	spStore.End()
	spProc.End()
	return stats
}
