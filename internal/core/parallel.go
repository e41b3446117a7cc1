// Parallel planning. Every phase of Plan fans out over sites through one
// helper, fanOut, and every phase is deterministic at any width for one
// reason: a page belongs to exactly one site, so the planner's mutable
// cells split into per-page cells (the page's X/X' row, its byte counts,
// its cached chain time) and per-site cells (the site's store and stored
// bytes, its objective and load accumulators, its mark counters, its
// (object) index), and no cell belongs to two sites.
//
// PARTITION, restoration, the refine sweep and the off-loading acceptance
// mutate the planner in place, one site per call. Each walks the site's
// pages sequentially in a fixed order and touches only that site's cells
// and its pages' cells, so concurrent sites neither race nor observe each
// other, and float accumulation order is a function of the workload alone.
// No phase uses more workers than there are sites.
//
// Any Workers value therefore produces byte-identical placements, message
// logs and statistics, and an identical D.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// clock is the planner's only wall-clock read. It feeds span busy time and
// never planner state; the fan-out test swaps it to count reads.
var clock = time.Now //repllint:allow determinism — span busy-time telemetry; never feeds planner state

// lap adds the time since from to sp's busy counter and returns the new lap
// start; a zero from only starts the clock. With tracing off every span is
// nil and lap returns its argument — no clock reads, no allocations.
func lap(sp *trace.Active, from time.Time) time.Time {
	if sp == nil {
		return from
	}
	now := clock()
	if !from.IsZero() {
		sp.AddBusy(now.Sub(from))
	}
	return now
}

// fanOut calls fn(i) exactly once for every i in [0, n), on up to workers
// goroutines. With workers <= 1 (or n <= 1) it runs inline on the caller's
// goroutine in index order; otherwise workers claim chunks of the range from
// an atomic cursor. fn must confine its writes to cells owned by index i.
// Each worker adds its busy time to sp once.
func fanOut(workers, n int, sp *trace.Active, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		t := lap(sp, time.Time{})
		for i := 0; i < n; i++ {
			fn(i)
		}
		lap(sp, t)
		return
	}
	// A quarter of a worker's even share per claim gives every worker
	// several claims, which balances the 400-800 page/site skew.
	chunk := max(1, n/(4*workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := lap(sp, time.Time{})
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					break
				}
				for i, hi := lo, min(lo+chunk, n); i < hi; i++ {
					fn(i)
				}
			}
			lap(sp, t)
		}()
	}
	wg.Wait()
}

// partitionSite runs PARTITION on site i's pages, which must still be
// all-remote, in the site's page order, and marks every optional link
// local; an object's first local mark stores its replica. Each page adds
// f·(T_new − T_old), its optional links' Eq. 6 change and the request rate
// it moved local to the site accumulators, each summed over the page first.
// A second walk sets the stored-but-remote bits: every optional link is
// local now, so they are the repository-marked compulsory references whose
// object got a replica. order is partitionSplit's visit order.
func (pl *Planner) partitionSite(i workload.SiteID, order *workload.PartitionOrder) {
	w := pl.env.W
	marks := pl.localMarks[pl.slot(i, 0):pl.slot(i+1, 0)]
	for _, pid := range w.Sites[i].Pages {
		pg := &w.Pages[pid]
		f := float64(pg.Freq)
		oldT := pl.pageT[pid]

		var localB units.ByteSize
		nLocal := 0
		pl.partitionSplit(pid, order, func(idx int, toLocal bool) {
			if !toLocal { // a remote object keeps its initial X bit of 0
				return
			}
			k := pg.Compulsory[idx]
			pl.p.SetCompLocal(pid, idx, true)
			localB += w.ObjectSize(k)
			nLocal++
			if marks[k] == 0 {
				pl.p.Store(i, k)
			}
			marks[k]++
		})
		pl.localBytes[pid] += localB
		pl.remoteBytes[pid] -= localB

		// Section 4.2 "store all optional objects".
		var d2, optMoved float64
		off := pl.optOff[pid]
		for idx, l := range pg.Optional {
			pl.p.SetOptLocal(pid, idx, true)
			d2 += f * l.Prob * float64(pl.optLocalT[off+idx]-pl.optRemoteT[off+idx])
			optMoved += f * l.Prob
			if marks[l.Object] == 0 {
				pl.p.Store(i, l.Object)
			}
			marks[l.Object]++
		}
		pl.siteRefs[i].localComp += nLocal
		pl.siteRefs[i].localOpt += len(pg.Optional)

		newT := pl.computePageTime(pid)
		pl.pageT[pid] = newT
		moved := float64(nLocal)*f + optMoved
		pl.d1Site[i] += f * float64(newT-oldT)
		pl.d2Site[i] += d2
		pl.siteLocalLoad[i] += moved
		pl.siteRepoLoad[i] -= moved
	}
	for _, pid := range w.Sites[i].Pages {
		for idx, k := range w.Pages[pid].Compulsory {
			if !pl.p.CompLocal(pid, idx) && pl.p.IsStored(i, k) {
				pl.setIdle(pid, idx, false, true)
			}
		}
	}
}

// PartitionParallel runs PARTITION over every page (and marks all optional
// links local) using up to workers goroutines, one site at a time per
// worker, so at most NumSites workers run. The planner must be freshly
// constructed (all-remote). The visit order is fetched once, before the
// fan-out; the workload builds it on its first plan. A non-nil parent gains
// a trace.SpanPartition child carrying the workers' busy time. The results
// are byte-identical for every worker count.
func (pl *Planner) PartitionParallel(workers int, parent *trace.Active) {
	sp := parent.StartChild(trace.SpanPartition)
	defer sp.End()
	order := pl.partitionOrder()
	fanOut(workers, pl.env.W.NumSites(), sp, func(i int) {
		pl.partitionSite(workload.SiteID(i), order)
	})
}
