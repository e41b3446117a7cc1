package core

import (
	"math"

	"repro/internal/workload"
)

// RefineSite is an extension beyond the paper's algorithm (Options.Refine):
// a post-restoration improvement sweep. The paper's storage restoration
// only ever *removes* replicas, and its re-partitioning step only re-marks
// objects that are still stored — so after evicting a 2 MB replica, a
// profitable 100 KB object that would now fit is never (re)considered.
// RefineSite closes that gap greedily: while some remote-marked reference
// has a negative ΔD and its object is stored or fits in the free space —
// and the site's capacity allows the extra requests — flip the best one
// (ΔD amortized over the bytes it must newly occupy). Each flip strictly
// decreases D, so the sweep terminates. Returns the number of flips.
func (pl *Planner) RefineSite(i workload.SiteID) (flips int) {
	capacity := float64(pl.env.Budgets.SiteCapacity[i])

	h := pl.refHeap(i, false, pl.refineKey)
	recompute := func(id int64) (float64, bool) {
		j, idx, optional := decodeRef(id)
		if pl.isLocal(j, idx, optional) {
			return 0, false
		}
		k, gain := pl.refOf(j, idx, optional)
		if !pl.p.IsStored(i, k) && pl.env.W.ObjectSize(k) > pl.freeSpace(i) {
			return 0, false
		}
		if !math.IsInf(capacity, 1) && pl.siteLocalLoad[i]+gain > capacity+1e-9 {
			return 0, false
		}
		key := pl.refineKey(j, idx, optional)
		if key >= -1e-12 {
			return 0, false // not an improvement (any more)
		}
		return key, true
	}

	for {
		id, _, ok := h.popFresh(recompute)
		if !ok {
			return flips
		}
		j, idx, optional := decodeRef(id)
		k, _ := pl.refOf(j, idx, optional)
		pl.store(i, k) // a no-op when already stored
		pl.flip(j, idx, optional, true)
		flips++
	}
}

// refineKey is ΔD of flipping the reference local, amortized over the new
// bytes the flip must occupy (zero for already-stored objects, which makes
// free improvements sort first).
func (pl *Planner) refineKey(j workload.PageID, idx int, optional bool) float64 {
	k, _ := pl.refOf(j, idx, optional)
	preview := pl.previewFlip(j, idx, optional, true)
	if pl.p.IsStored(pl.env.W.Pages[j].Site, k) {
		return preview // free: no new bytes
	}
	size := float64(pl.env.W.ObjectSize(k))
	if size <= 0 {
		return preview
	}
	// Normalize per MB so stored (free) candidates still dominate.
	return preview / (size / 1e6)
}
