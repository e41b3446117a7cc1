package core

import "repro/internal/workload"

// partitionSplit is the paper's PARTITION(W_j) decision, written once:
// page j's compulsory objects are visited in order (the workload's
// PartitionOrder: decreasing size, equal sizes in page order; a nil order,
// as under UnsortedPartition, visits page order), each tentatively added to
// both chains and assigned to the side that leaves the smaller running time
// — exactly the pseudocode of Section 4.2 (the object goes to the
// repository iff RemoteDownload + transfer < LocalDownload + transfer).
// assign is called once per object, in visit order, with its side; the
// decision depends on the page and the estimates only, never on the
// placement, so callers may apply it as they go.
//
// Per the pseudocode the remote running time starts at Ovhd(R, S_i) even if
// no object ends up remote.
func (pl *Planner) partitionSplit(j workload.PageID, order *workload.PartitionOrder, assign func(idx int, toLocal bool)) {
	pg := &pl.env.W.Pages[j]
	est := pl.env.SiteEst(j)
	visit := order.Page(j)

	local := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	remote := est.RepoOvhd
	for v := range pg.Compulsory {
		idx := v
		if visit != nil {
			idx = int(visit[v])
		}
		size := pl.env.W.ObjectSize(pg.Compulsory[idx])
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
}

// partitionOrder is the visit order partitionSplit takes: the workload's
// PartitionOrder, or nil (page order) under UnsortedPartition.
func (pl *Planner) partitionOrder() *workload.PartitionOrder {
	if pl.UnsortedPartition {
		return nil
	}
	return pl.env.W.PartitionOrder()
}

// PartitionPage applies the PARTITION split to one page by flipping, so it
// is correct on any prior state of the page (AdmitPage and repair need
// that); objects assigned locally are stored at the page's site. The
// planner's cached Eq. 4 value (0 for an empty remote chain) is
// re-established by the flips themselves.
func (pl *Planner) PartitionPage(j workload.PageID) {
	pg := &pl.env.W.Pages[j]
	pl.partitionSplit(j, pl.partitionOrder(), func(idx int, toLocal bool) {
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
