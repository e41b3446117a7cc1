package core

import (
	"slices"

	"repro/internal/units"
	"repro/internal/workload"
)

// partitionSplit is the paper's PARTITION(W_j) decision, written once:
// page j's compulsory objects are visited in decreasing size order (page
// order under UnsortedPartition), each tentatively added to both chains and
// assigned to the side that leaves the smaller running time — exactly the
// pseudocode of Section 4.2 (the object goes to the repository iff
// RemoteDownload + transfer < LocalDownload + transfer). assign is called
// once per object, in visit order, with its side; the decision depends on
// the page and the estimates only, never on the placement, so callers may
// apply it as they go. buf is a reusable visit-order buffer, returned
// (possibly regrown) for the next call.
//
// Per the pseudocode the remote running time starts at Ovhd(R, S_i) even if
// no object ends up remote.
func (pl *Planner) partitionSplit(j workload.PageID, buf []uint64, assign func(idx int, toLocal bool)) []uint64 {
	pg := &pl.env.W.Pages[j]
	est := pl.env.SiteEst(j)
	order := pl.visitOrder(j, buf)

	local := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	remote := est.RepoOvhd
	for _, word := range order {
		idx, size := unpackVisit(word)
		remoteIf := remote + est.RepoRate.TransferTime(size)
		localIf := local + est.LocalRate.TransferTime(size)
		if remoteIf < localIf {
			remote = remoteIf
			assign(idx, false)
		} else {
			local = localIf
			assign(idx, true)
		}
	}
	return order
}

// insertionSortMax is the longest page whose visit order is insertion
// sorted. Table-1 pages hold 5-45 compulsory objects: insertion sort orders
// all of them in 4.1 ms, slices.Sort in 5.5 ms (go1.24, 2 vCPUs).
const insertionSortMax = 64

// visitOrder returns page j's compulsory objects in PARTITION's visit order,
// one ordered word per object: the complement of its size above its idx, so
// ascending words are decreasing sizes with ties in idx order — a strict
// total order, and workload.Validate guards both widths. Under
// UnsortedPartition the words stay in page order. buf is reused.
func (pl *Planner) visitOrder(j workload.PageID, buf []uint64) []uint64 {
	pg := &pl.env.W.Pages[j]
	order := slices.Grow(buf[:0], len(pg.Compulsory))
	for idx, k := range pg.Compulsory {
		order = append(order, uint64(workload.MaxObjectSize-pl.env.W.ObjectSize(k))<<workload.PageRefBits|uint64(idx))
	}
	switch {
	case pl.UnsortedPartition:
	case len(order) > insertionSortMax:
		slices.Sort(order)
	default:
		for i := 1; i < len(order); i++ {
			v, at := order[i], i
			for ; at > 0 && v < order[at-1]; at-- {
				order[at] = order[at-1]
			}
			order[at] = v
		}
	}
	return order
}

// unpackVisit returns a visit-order word's object idx and size.
func unpackVisit(word uint64) (int, units.ByteSize) {
	return int(word & (1<<workload.PageRefBits - 1)), workload.MaxObjectSize - units.ByteSize(word>>workload.PageRefBits)
}

// PartitionPage applies the PARTITION split to one page by flipping, so it
// is correct on any prior state of the page (AdmitPage and repair need
// that); objects assigned locally are stored at the page's site. The
// planner's cached Eq. 4 value (0 for an empty remote chain) is
// re-established by the flips themselves.
func (pl *Planner) PartitionPage(j workload.PageID) {
	pg := &pl.env.W.Pages[j]
	pl.partitionSplit(j, nil, func(idx int, toLocal bool) {
		if toLocal {
			pl.store(pg.Site, pg.Compulsory[idx])
		}
		pl.flipComp(j, idx, toLocal)
	})
}

// AdmitPage runs the full per-page admission of PARTITION on page j at its
// current host site: the compulsory split, then storing every optional
// object locally with its download marked local (Section 4.2's "Store all
// optional objects"). It is PartitionSite restricted to one page — the
// primitive the repair planner uses to re-home a dead site's page onto a
// survivor without disturbing the survivor's other pages. Constraint
// restoration afterwards trims whatever does not fit.
func (pl *Planner) AdmitPage(j workload.PageID) {
	pl.PartitionPage(j)
	pg := &pl.env.W.Pages[j]
	for idx, l := range pg.Optional {
		pl.store(pg.Site, l.Object)
		pl.flipOpt(j, idx, true)
	}
}

// PartitionSite runs PARTITION on every page of site i and then stores all
// optional objects locally (Section 4.2: "Store all optional objects"),
// marking their downloads local. Constraint restoration afterwards trims
// whatever does not fit.
func (pl *Planner) PartitionSite(i workload.SiteID) {
	for _, pid := range pl.env.W.Sites[i].Pages {
		pl.PartitionPage(pid)
	}
	for _, pid := range pl.env.W.Sites[i].Pages {
		pg := &pl.env.W.Pages[pid]
		for idx, l := range pg.Optional {
			pl.store(i, l.Object)
			pl.flipOpt(pid, idx, true)
		}
	}
}

// PartitionAll runs PartitionSite on every site sequentially.
func (pl *Planner) PartitionAll() {
	for i := range pl.env.W.Sites {
		pl.PartitionSite(workload.SiteID(i))
	}
}
