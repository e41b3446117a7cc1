// Parallel planning. Every phase of Plan fans out through one helper,
// fanOut, and every phase is deterministic at any width for one reason: a
// page belongs to exactly one site, so the planner's mutable cells split
// into per-page cells (the page's X/X' row, its byte counts, its cached
// chain time) and per-site cells (the site's store and stored bytes, its
// objective and load accumulators, its mark counters, its (object) index),
// and no cell belongs to two sites.
//
//   - PARTITION fans out over pages. A page's split touches only that page's
//     cells; its contribution to the site cells is recorded as a delta, and a
//     second fan-out over sites folds the deltas in each site's fixed page
//     order. Float accumulation order is a function of the workload alone.
//
//   - Restoration, the refine sweep and the off-loading acceptance fan out
//     over sites and mutate the planner in place. The greedy loops are
//     sequential within a site and touch only that site's cells and its
//     pages' cells, so concurrent sites neither race nor observe each other.
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

// fanOutChunk caps how many indices a worker claims at once: big enough to
// amortize the atomic fetch over PARTITION's pages, small enough to balance
// the 400-800 page/site skew across workers. Short ranges (sites) shrink the
// chunk so every worker still gets several claims.
const fanOutChunk = 64

// fanOut calls fn(w, i) exactly once for every i in [0, n), on up to workers
// goroutines; w identifies the calling worker, 0 <= w < max(workers, 1), for
// per-worker scratch state. With workers <= 1 (or n <= 1) it runs inline on
// the caller's goroutine in index order; otherwise workers claim chunks of
// the range from an atomic cursor. fn must confine its writes to cells owned
// by index i. Each worker adds its busy time to sp once.
func fanOut(workers, n int, sp *trace.Active, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		t := lap(sp, time.Time{})
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		lap(sp, t)
		return
	}
	chunk := max(1, min(fanOutChunk, n/(4*workers)))
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
					fn(w, i)
				}
			}
			lap(sp, t)
		}()
	}
	wg.Wait()
}

// partitionDelta is one page's contribution to its site's accumulators: the
// Eq. 7 objective deltas and the request rate moved from the repository to
// the local server by the page's PARTITION outcome.
type partitionDelta struct {
	d1    float64 // α1-side objective change, f·(T_new − T_old)
	d2    float64 // α2-side objective change over the page's optional links
	moved float64 // req/s moved local (added to Eq. 8, removed from Eq. 9)
}

// partitionPageDelta applies the PARTITION split to page j touching only
// page-local state: the page's placement row, its byte counts and its
// cached chain time. Site-level accounting is returned as a delta for the
// deterministic per-site reduce. The page must still be in its all-remote
// initial state. buf is the caller's reusable visit-order buffer, returned
// for the next page.
func (pl *Planner) partitionPageDelta(j workload.PageID, buf []uint64) (partitionDelta, []uint64) {
	pg := &pl.env.W.Pages[j]
	f := float64(pg.Freq)
	oldT := pl.pageT[j]

	var localB units.ByteSize
	nLocal := 0
	buf = pl.partitionSplit(j, buf, func(idx int, toLocal bool) {
		if toLocal { // a remote object keeps its initial X bit of 0
			pl.p.SetCompLocal(j, idx, true)
			localB += pl.env.W.ObjectSize(pg.Compulsory[idx])
			nLocal++
		}
	})
	pl.localBytes[j] += localB
	pl.remoteBytes[j] -= localB

	// Section 4.2 "store all optional objects": every optional link is
	// marked local; the replica allocation happens in the reduce.
	var d2, optMoved float64
	off := pl.optOff[j]
	for idx, l := range pg.Optional {
		pl.p.SetOptLocal(j, idx, true)
		d2 += f * l.Prob * float64(pl.optLocalT[off+idx]-pl.optRemoteT[off+idx])
		optMoved += f * l.Prob
	}

	newT := pl.computePageTime(j)
	pl.pageT[j] = newT
	return partitionDelta{
		d1:    f * float64(newT-oldT),
		d2:    d2,
		moved: float64(nLocal)*f + optMoved,
	}, buf
}

// reducePartitionSite folds the partition deltas of site i's pages into the
// planner's site accumulators, counts the local marks and stores a replica
// of every marked object — always in the site's fixed page order, so the
// result is independent of how the parallel phase scheduled the pages. A
// second walk sets the stored-but-remote bits: every optional link is local
// now, so they are the repository-marked compulsory references whose object
// got a replica.
func (pl *Planner) reducePartitionSite(i workload.SiteID, deltas []partitionDelta) {
	w := pl.env.W
	marks := pl.localMarks[pl.slot(i, 0):pl.slot(i+1, 0)]
	for _, pid := range w.Sites[i].Pages {
		d := &deltas[pid]
		pl.d1Site[i] += d.d1
		pl.d2Site[i] += d.d2
		pl.siteLocalLoad[i] += d.moved
		pl.siteRepoLoad[i] -= d.moved
		pg := &w.Pages[pid]
		for idx, k := range pg.Compulsory {
			if pl.p.CompLocal(pid, idx) {
				if marks[k] == 0 {
					pl.p.Store(i, k)
				}
				marks[k]++
			}
		}
		for _, l := range pg.Optional {
			if marks[l.Object] == 0 {
				pl.p.Store(i, l.Object)
			}
			marks[l.Object]++
		}
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
// links local) using up to workers goroutines, then reduces the site-level
// accounting deterministically. The planner must be freshly constructed
// (all-remote). A non-nil parent gains a trace.SpanPartition child carrying
// the workers' busy time. The results are byte-identical for every worker
// count.
func (pl *Planner) PartitionParallel(workers int, parent *trace.Active) {
	sp := parent.StartChild(trace.SpanPartition)
	defer sp.End()
	w := pl.env.W
	deltas := make([]partitionDelta, w.NumPages())
	bufs := make([][]uint64, max(workers, 1)) // per-worker visit-order buffers
	fanOut(workers, w.NumPages(), sp, func(wk, j int) {
		deltas[j], bufs[wk] = pl.partitionPageDelta(workload.PageID(j), bufs[wk])
	})
	fanOut(workers, w.NumSites(), sp, func(_, i int) {
		pl.reducePartitionSite(workload.SiteID(i), deltas)
	})
}
