// Package core implements the paper's contribution (Section 4): the
// per-page PARTITION heuristic that splits each page's compulsory objects
// between the local server and the repository to minimize the parallel
// download time, the greedy restoration of the storage (Eq. 10) and
// processing (Eq. 8) constraints, and the repository off-loading negotiation
// (Eq. 9) between the repository coordinator and the local servers.
//
// The package keeps an incrementally-maintained view of the cost model —
// per-page chain times, the weighted objective D, and per-site loads — so
// the greedy loops run in near-linear time; tests validate every cached
// quantity against the pure recomputation in internal/model.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// objRef locates one reference of an object on a page (workload.SiteIndex).
type objRef = workload.ObjectRef

// Planner carries the incremental planning state for one environment. It is
// created by NewPlanner, driven by Plan (or the individual phases), and is
// not safe for concurrent use except as documented in parallel.go: the
// per-site methods (RestoreStorageSite, RestoreProcessingSite, RefineSite,
// AcceptWorkload) may run concurrently for distinct sites, because every
// mutable cell below is owned by one page or one site.
type Planner struct {
	env *model.Env
	p   *model.Placement

	// Ablation switches (normally false; see Options and the ablation
	// benchmarks): UnsortedPartition drops PARTITION's decreasing-size
	// visit order; NoRepartition skips the re-partitioning step after a
	// storage deallocation.
	UnsortedPartition bool
	NoRepartition     bool

	// Per-page cached chain state (Eq. 3/4 under the estimates).
	localBytes  []units.ByteSize // HTML + locally-assigned compulsory bytes
	remoteBytes []units.ByteSize // repository-assigned compulsory bytes

	// pageT caches Eq. 5 — the current max of the two chains — per page.
	// flipComp keeps it fresh, so the preview scoring on the restoration and
	// off-loading hot paths reads the "before" time instead of recomputing
	// the whole-page max on every candidate evaluation.
	pageT []units.Seconds

	// Flattened per-link one-download times (Eq. 6 inner terms). Both sides
	// are constants of the environment — overhead plus transfer time of a
	// fixed size at a fixed estimated rate — so they are precomputed once:
	// link idx of page j lives at optOff[j]+idx. flipOpt scoring picks a
	// side by bit instead of redoing the rate arithmetic per evaluation.
	optOff     []int
	optLocalT  []units.Seconds
	optRemoteT []units.Seconds

	// Incremental objective and loads, kept per site so the per-site
	// planning phases can run concurrently without sharing hot words
	// (distinct sites touch disjoint pages).
	d1Site        []float64 // Σ f·Time(W_j) over the site's pages
	d2Site        []float64 // Σ f·Time(W_j, M) over the site's pages
	siteLocalLoad []float64 // Eq. 8 LHS per site
	siteRepoLoad  []float64 // P(S_i, R) per site

	// The (site, object) index is the workload's (workload.SiteIndex),
	// built the first time a site's phases ask (refsOf, candidates):
	// PARTITION and a plan within its budgets never do. It lists object k's
	// references by site i's pages in ascending page ID and compulsory
	// before optional within a page — deallocate flips them in that order,
	// and the order feeds the float accumulators. localMarks[s] counts how
	// many of slot s = i·NumObjects+k's references are currently marked
	// local (zero marks ⇒ the replica is free to deallocate). siteRefs[i]
	// totals site i's compulsory references and its local marks, for
	// Result.Sites and for sizing the site's heaps.
	localMarks []int32
	siteRefs   []siteRefCount

	// The stored-but-remote index, the only references improvePage can
	// flip: bit b of idle[idleOff[j]:idleOff[j+1]] is set iff page j's b-th
	// reference — compulsory idx first, optional idx after them — is marked
	// for the repository while its object is stored at the page's site.
	// flipComp/flipOpt and store/unstore write it one reference or replica
	// at a time; PARTITION (partitionSite) and AdoptPlacement set a site's
	// bits in one walk of its pages.
	idleOff []int32
	idle    []uint64

	// Per-site scratch of the greedy loops, so the steady state allocates
	// nothing: the pages deallocate last disturbed, the candidate buffer
	// each of the site's heaps is built in (one heap at a time, grown to the
	// largest of them), and the swap phase's per-object rates (one slot per
	// reference).
	scratch []siteScratch
}

type siteRefCount struct{ comp, localComp, localOpt int }

type siteScratch struct {
	affected []workload.PageID
	heap     []heapItem
	rate     []float64
}

// NewPlanner builds a planner with an all-remote placement.
func NewPlanner(env *model.Env) *Planner {
	w := env.W
	pl := &Planner{
		env:           env,
		p:             model.NewPlacement(w),
		localBytes:    make([]units.ByteSize, w.NumPages()),
		remoteBytes:   make([]units.ByteSize, w.NumPages()),
		pageT:         make([]units.Seconds, w.NumPages()),
		optOff:        make([]int, w.NumPages()+1),
		idleOff:       make([]int32, w.NumPages()+1),
		d1Site:        make([]float64, w.NumSites()),
		d2Site:        make([]float64, w.NumSites()),
		siteLocalLoad: make([]float64, w.NumSites()),
		siteRepoLoad:  make([]float64, w.NumSites()),
		localMarks:    make([]int32, w.NumSites()*w.NumObjects()),
		siteRefs:      make([]siteRefCount, w.NumSites()),
		scratch:       make([]siteScratch, w.NumSites()),
	}
	links := 0
	for j := range w.Pages {
		pg := &w.Pages[j]
		pl.optOff[j] = links
		links += len(pg.Optional)
		pl.idleOff[j+1] = pl.idleOff[j] + int32(len(pg.Compulsory)+len(pg.Optional)+63)>>6
	}
	pl.idle = make([]uint64, pl.idleOff[w.NumPages()])
	pl.optOff[w.NumPages()] = links
	pl.optLocalT = make([]units.Seconds, links)
	pl.optRemoteT = make([]units.Seconds, links)
	for j := range w.Pages {
		est := pl.env.SiteEst(workload.PageID(j))
		for idx, l := range w.Pages[j].Optional {
			size := w.ObjectSize(l.Object)
			pl.optLocalT[pl.optOff[j]+idx] = est.LocalOvhd + est.LocalRate.TransferTime(size)
			pl.optRemoteT[pl.optOff[j]+idx] = est.RepoOvhd + est.RepoRate.TransferTime(size)
		}
	}
	for j := range w.Pages {
		pg := &w.Pages[j]
		pl.localBytes[j] = pg.HTMLSize
		var rb units.ByteSize
		for _, k := range pg.Compulsory {
			rb += w.ObjectSize(k)
		}
		// All-remote, a view requests every compulsory object and each
		// optional link's probability from the repository (Eq. 9), and
		// every optional download pays the repository side (Eq. 6).
		repoPerView := float64(len(pg.Compulsory))
		var optT units.Seconds
		for idx, l := range pg.Optional {
			repoPerView += l.Prob
			optT += units.Seconds(l.Prob) * pl.optRemoteT[pl.optOff[j]+idx]
		}
		pl.remoteBytes[j] = rb
		pl.siteRefs[pg.Site].comp += len(pg.Compulsory)
		pl.pageT[j] = pl.computePageTime(workload.PageID(j))

		f := float64(pg.Freq)
		pl.d1Site[pg.Site] += f * float64(pl.pageTime(workload.PageID(j)))
		pl.d2Site[pg.Site] += f * float64(optT)
		pl.siteLocalLoad[pg.Site] += f // the HTML request
		pl.siteRepoLoad[pg.Site] += f * repoPerView
	}
	return pl
}

// slot returns the flat index of the (site, object) pair.
func (pl *Planner) slot(i workload.SiteID, k workload.ObjectID) int {
	return int(i)*len(pl.env.W.Objects) + int(k)
}

// refsOf lists every reference of object k by a page of site i.
func (pl *Planner) refsOf(i workload.SiteID, k workload.ObjectID) []objRef {
	off, refs := pl.env.W.SiteIndex(i)
	return refs[off[k]:off[k+1]]
}

// candidates returns site i's empty heap buffer, with room for n items: a
// lazy heap never holds more than it was built with, since popFresh pushes
// an item back only after popping one.
func (pl *Planner) candidates(i workload.SiteID, n int) []heapItem {
	if cap(pl.scratch[i].heap) < n {
		pl.scratch[i].heap = make([]heapItem, 0, n)
	}
	return pl.scratch[i].heap[:0]
}

// refAt resolves bit b of page j's stored-but-remote words to the reference
// it stands for; setIdle writes the bit of a reference.
func (pl *Planner) refAt(j workload.PageID, b int) (idx int, optional bool) {
	if nc := len(pl.env.W.Pages[j].Compulsory); b >= nc {
		return b - nc, true
	}
	return b, false
}

func (pl *Planner) setIdle(j workload.PageID, idx int, optional, on bool) {
	if optional {
		idx += len(pl.env.W.Pages[j].Compulsory)
	}
	word, bit := &pl.idle[int(pl.idleOff[j])+idx>>6], uint64(1)<<(idx&63)
	if on {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// store replicates object k at site i (idempotent) and unstore removes the
// replica; the per-reference phases (PartitionPage, restoration, refine,
// off-loading) go through them, so the object's repository-marked
// references enter and leave the stored-but-remote index with the replica.
func (pl *Planner) store(i workload.SiteID, k workload.ObjectID) {
	if pl.p.IsStored(i, k) {
		return
	}
	pl.p.Store(i, k)
	refs := pl.refsOf(i, k)
	if int(pl.localMarks[pl.slot(i, k)]) == len(refs) {
		return // no reference is repository-marked
	}
	for _, r := range refs {
		if !pl.isLocal(r.Page, int(r.Idx), r.Optional) {
			pl.setIdle(r.Page, int(r.Idx), r.Optional, true)
		}
	}
}

func (pl *Planner) unstore(i workload.SiteID, k workload.ObjectID) {
	pl.p.Unstore(i, k)
	for _, r := range pl.refsOf(i, k) {
		pl.setIdle(r.Page, int(r.Idx), r.Optional, false)
	}
}

// Env returns the planning environment.
func (pl *Planner) Env() *model.Env { return pl.env }

// Placement returns the planner's placement. Callers must not mutate it
// directly while the planner is still in use.
func (pl *Planner) Placement() *model.Placement { return pl.p }

// localTime returns Eq. 3 for page j from the cached byte counts.
func (pl *Planner) localTime(j workload.PageID) units.Seconds {
	est := pl.env.SiteEst(j)
	return est.LocalOvhd + est.LocalRate.TransferTime(pl.localBytes[j])
}

// remoteTime returns Eq. 4 for page j (0 when nothing is remote, matching
// model.PageRemoteTime).
func (pl *Planner) remoteTime(j workload.PageID) units.Seconds {
	if pl.remoteBytes[j] == 0 {
		return 0
	}
	est := pl.env.SiteEst(j)
	return est.RepoOvhd + est.RepoRate.TransferTime(pl.remoteBytes[j])
}

// computePageTime evaluates Eq. 5 for page j from the cached byte counts.
func (pl *Planner) computePageTime(j workload.PageID) units.Seconds {
	return units.MaxSeconds(pl.localTime(j), pl.remoteTime(j))
}

// pageTime returns the cached Eq. 5 value for page j.
func (pl *Planner) pageTime(j workload.PageID) units.Seconds {
	return pl.pageT[j]
}

// optOneTime returns the time of one download of page j's idx-th optional
// link, on the side the placement currently assigns.
func (pl *Planner) optOneTime(j workload.PageID, idx int) units.Seconds {
	return pl.optOneTimeOn(j, idx, pl.p.OptLocal(j, idx))
}

// optOneTimeOn returns the same for an explicit side, from the precomputed
// per-link constants.
func (pl *Planner) optOneTimeOn(j workload.PageID, idx int, local bool) units.Seconds {
	if local {
		return pl.optLocalT[pl.optOff[j]+idx]
	}
	return pl.optRemoteT[pl.optOff[j]+idx]
}

// D returns the current composite objective α1·D1 + α2·D2.
func (pl *Planner) D() float64 { return pl.env.Alpha1*pl.D1() + pl.env.Alpha2*pl.D2() }

// D1 returns the cached Σ f·Time(W_j).
func (pl *Planner) D1() float64 {
	sum := 0.0
	for _, v := range pl.d1Site {
		sum += v
	}
	return sum
}

// D2 returns the cached Σ f·Time(W_j, M).
func (pl *Planner) D2() float64 {
	sum := 0.0
	for _, v := range pl.d2Site {
		sum += v
	}
	return sum
}

// SiteLoad returns the cached Eq. 8 LHS for site i.
func (pl *Planner) SiteLoad(i workload.SiteID) units.ReqPerSec {
	return units.ReqPerSec(pl.siteLocalLoad[i])
}

// SiteRepoLoad returns the cached P(S_i, R).
func (pl *Planner) SiteRepoLoad(i workload.SiteID) units.ReqPerSec {
	return units.ReqPerSec(pl.siteRepoLoad[i])
}

// RepoLoad returns the cached Eq. 9 LHS.
func (pl *Planner) RepoLoad() units.ReqPerSec {
	sum := 0.0
	for _, v := range pl.siteRepoLoad {
		sum += v
	}
	return units.ReqPerSec(sum)
}

// flipComp moves page j's idx-th compulsory object between the chains and
// updates every cached quantity. It is a no-op if already on that side.
// The caller manages the store (the object must be stored when toLocal).
func (pl *Planner) flipComp(j workload.PageID, idx int, toLocal bool) {
	if pl.p.CompLocal(j, idx) == toLocal {
		return
	}
	pg := &pl.env.W.Pages[j]
	size := pl.env.W.ObjectSize(pg.Compulsory[idx])
	f := float64(pg.Freq)

	oldT := pl.pageT[j]
	if toLocal {
		pl.localBytes[j] += size
		pl.remoteBytes[j] -= size
		pl.siteLocalLoad[pg.Site] += f
		pl.siteRepoLoad[pg.Site] -= f
		pl.localMarks[pl.slot(pg.Site, pg.Compulsory[idx])]++
		pl.siteRefs[pg.Site].localComp++
	} else {
		pl.localBytes[j] -= size
		pl.remoteBytes[j] += size
		pl.siteLocalLoad[pg.Site] -= f
		pl.siteRepoLoad[pg.Site] += f
		pl.localMarks[pl.slot(pg.Site, pg.Compulsory[idx])]--
		pl.siteRefs[pg.Site].localComp--
	}
	pl.p.SetCompLocal(j, idx, toLocal)
	pl.setIdle(j, idx, false, !toLocal && pl.p.IsStored(pg.Site, pg.Compulsory[idx]))
	newT := pl.computePageTime(j)
	pl.pageT[j] = newT
	pl.d1Site[pg.Site] += f * float64(newT-oldT)
}

// flipOpt moves page j's idx-th optional link between the sides and updates
// the caches.
func (pl *Planner) flipOpt(j workload.PageID, idx int, toLocal bool) {
	if pl.p.OptLocal(j, idx) == toLocal {
		return
	}
	pg := &pl.env.W.Pages[j]
	l := pg.Optional[idx]
	f := float64(pg.Freq)

	oldOne := pl.optOneTime(j, idx)
	pl.p.SetOptLocal(j, idx, toLocal)
	pl.setIdle(j, idx, true, !toLocal && pl.p.IsStored(pg.Site, l.Object))
	newOne := pl.optOneTime(j, idx)
	pl.d2Site[pg.Site] += f * l.Prob * float64(newOne-oldOne)
	if toLocal {
		pl.siteLocalLoad[pg.Site] += f * l.Prob
		pl.siteRepoLoad[pg.Site] -= f * l.Prob
		pl.localMarks[pl.slot(pg.Site, l.Object)]++
		pl.siteRefs[pg.Site].localOpt++
	} else {
		pl.siteLocalLoad[pg.Site] -= f * l.Prob
		pl.siteRepoLoad[pg.Site] += f * l.Prob
		pl.localMarks[pl.slot(pg.Site, l.Object)]--
		pl.siteRefs[pg.Site].localOpt--
	}
}

// A reference is a (page, idx, optional) triple: idx indexes the page's
// Optional list when optional is set, its Compulsory list otherwise. refOf
// resolves one to its object and to the request rate a flip of it moves
// between the site and the repository; isLocal, flip and previewFlip
// dispatch on the kind.
func (pl *Planner) refOf(j workload.PageID, idx int, optional bool) (workload.ObjectID, float64) {
	pg := &pl.env.W.Pages[j]
	if optional {
		return pg.Optional[idx].Object, float64(pg.Freq) * pg.Optional[idx].Prob
	}
	return pg.Compulsory[idx], float64(pg.Freq)
}

func (pl *Planner) isLocal(j workload.PageID, idx int, optional bool) bool {
	if optional {
		return pl.p.OptLocal(j, idx)
	}
	return pl.p.CompLocal(j, idx)
}

func (pl *Planner) flip(j workload.PageID, idx int, optional, toLocal bool) {
	if optional {
		pl.flipOpt(j, idx, toLocal)
	} else {
		pl.flipComp(j, idx, toLocal)
	}
}

func (pl *Planner) previewFlip(j workload.PageID, idx int, optional, toLocal bool) float64 {
	if optional {
		return pl.previewFlipOpt(j, idx, toLocal)
	}
	return pl.previewFlipComp(j, idx, toLocal)
}

// refHeap heapifies one candidate per reference by site i's pages that is
// currently on the given side, keyed by key, in the site's heap buffer.
func (pl *Planner) refHeap(i workload.SiteID, local bool, key func(j workload.PageID, idx int, optional bool) float64) lazyHeap {
	n := pl.siteRefs[i].localComp + pl.siteRefs[i].localOpt
	if !local {
		_, refs := pl.env.W.SiteIndex(i)
		n = len(refs) - n
	}
	items := pl.candidates(i, n)
	for _, pid := range pl.env.W.Sites[i].Pages {
		pg := &pl.env.W.Pages[pid]
		for idx := range pg.Compulsory {
			if pl.p.CompLocal(pid, idx) == local {
				items = append(items, heapItem{key: key(pid, idx, false), id: encodeRef(pid, idx, false)})
			}
		}
		for idx := range pg.Optional {
			if pl.p.OptLocal(pid, idx) == local {
				items = append(items, heapItem{key: key(pid, idx, true), id: encodeRef(pid, idx, true)})
			}
		}
	}
	h := lazyHeap{items: items}
	h.heapify()
	return h
}

// previewFlipComp returns the change in D if page j's idx-th compulsory
// object moved to the given side, without mutating anything.
func (pl *Planner) previewFlipComp(j workload.PageID, idx int, toLocal bool) float64 {
	if pl.p.CompLocal(j, idx) == toLocal {
		return 0
	}
	pg := &pl.env.W.Pages[j]
	est := pl.env.SiteEst(j)
	size := pl.env.W.ObjectSize(pg.Compulsory[idx])

	lb, rb := pl.localBytes[j], pl.remoteBytes[j]
	if toLocal {
		lb += size
		rb -= size
	} else {
		lb -= size
		rb += size
	}
	newLocal := est.LocalOvhd + est.LocalRate.TransferTime(lb)
	var newRemote units.Seconds
	if rb > 0 {
		newRemote = est.RepoOvhd + est.RepoRate.TransferTime(rb)
	}
	newT := units.MaxSeconds(newLocal, newRemote)
	return pl.env.Alpha1 * float64(pg.Freq) * float64(newT-pl.pageT[j])
}

// previewFlipOpt returns the change in D if page j's idx-th optional link
// moved to the given side.
func (pl *Planner) previewFlipOpt(j workload.PageID, idx int, toLocal bool) float64 {
	if pl.p.OptLocal(j, idx) == toLocal {
		return 0
	}
	pg := &pl.env.W.Pages[j]
	delta := float64(pl.optOneTimeOn(j, idx, toLocal) - pl.optOneTime(j, idx))
	return pl.env.Alpha2 * float64(pg.Freq) * pg.Optional[idx].Prob * delta
}

// VerifyConsistency recomputes every cached quantity with internal/model,
// re-sorts every page against the workload's PARTITION order, and
// returns an error on any mismatch. Test-only by convention (it is O(n·m)).
func (pl *Planner) VerifyConsistency() error {
	const eps = 1e-6
	if err := pl.p.CheckInvariants(); err != nil {
		return err
	}
	if d1 := model.D1(pl.env, pl.p); !approxEqual(d1, pl.D1(), eps) {
		return fmt.Errorf("core: cached D1 %v != recomputed %v", pl.D1(), d1)
	}
	if d2 := model.D2(pl.env, pl.p); !approxEqual(d2, pl.D2(), eps) {
		return fmt.Errorf("core: cached D2 %v != recomputed %v", pl.D2(), d2)
	}
	// The mark counters must agree with the placement matrices, and the
	// placement's O(1) Eq. 10 left-hand side with a recount.
	want := make([]int32, len(pl.env.W.Objects))
	for i := range pl.env.W.Sites {
		id := workload.SiteID(i)
		clear(want)
		var n siteRefCount
		for _, pid := range pl.env.W.Sites[i].Pages {
			pg := &pl.env.W.Pages[pid]
			n.comp += len(pg.Compulsory)
			for idx, k := range pg.Compulsory {
				if pl.p.CompLocal(pid, idx) {
					want[k]++
					n.localComp++
				}
			}
			for idx, l := range pg.Optional {
				if pl.p.OptLocal(pid, idx) {
					want[l.Object]++
					n.localOpt++
				}
			}
		}
		if n != pl.siteRefs[i] {
			return fmt.Errorf("core: site %d reference counts %+v != recounted %+v", i, pl.siteRefs[i], n)
		}
		used := pl.env.W.HTMLStorageBytes(id)
		for k, n := range pl.localMarks[pl.slot(id, 0):pl.slot(id+1, 0)] {
			if n != want[k] {
				return fmt.Errorf("core: site %d object %d mark count %d != %d", i, k, n, want[k])
			}
			if pl.p.IsStored(id, workload.ObjectID(k)) {
				used += pl.env.W.ObjectSize(workload.ObjectID(k))
			}
		}
		if got := pl.p.StorageUsed(id); got != used {
			return fmt.Errorf("core: site %d storage used %d != recounted %d", i, got, used)
		}
	}
	// Every built site index must list what a scan of the workload in page
	// order finds: each object's references by the site's pages, compulsory
	// before optional within a page.
	for i := range pl.env.W.Sites {
		id := workload.SiteID(i)
		if !pl.env.W.SiteIndexBuilt(id) {
			continue
		}
		byObject := make([][]objRef, len(pl.env.W.Objects))
		for j := range pl.env.W.Pages {
			pg := &pl.env.W.Pages[j]
			if pg.Site != id {
				continue
			}
			for idx, k := range pg.Compulsory {
				byObject[k] = append(byObject[k], objRef{Page: workload.PageID(j), Idx: int32(idx)})
			}
			for idx, l := range pg.Optional {
				byObject[l.Object] = append(byObject[l.Object], objRef{Page: workload.PageID(j), Idx: int32(idx), Optional: true})
			}
		}
		wantOff, want := []int32{0}, []objRef(nil)
		for _, r := range byObject {
			want = append(want, r...)
			wantOff = append(wantOff, int32(len(want)))
		}
		if off, refs := pl.env.W.SiteIndex(id); !slices.Equal(off, wantOff) || !slices.Equal(refs, want) {
			return fmt.Errorf("core: site %d (object) index differs from a scan of its pages", i)
		}
	}
	for i := range pl.env.W.Sites {
		id := workload.SiteID(i)
		if l := float64(model.SiteLoad(pl.env, pl.p, id)); !approxEqual(l, pl.siteLocalLoad[i], eps) {
			return fmt.Errorf("core: site %d cached load %v != recomputed %v", i, pl.siteLocalLoad[i], l)
		}
		if l := float64(model.SiteRepoLoad(pl.env, pl.p, id)); !approxEqual(l, pl.siteRepoLoad[i], eps) {
			return fmt.Errorf("core: site %d cached repo load %v != recomputed %v", i, pl.siteRepoLoad[i], l)
		}
	}
	order := pl.env.W.PartitionOrder()
	for j := range pl.env.W.Pages {
		id := workload.PageID(j)
		if lt := model.PageLocalTime(pl.env, pl.p, id); !approxEqual(float64(lt), float64(pl.localTime(id)), eps) {
			return fmt.Errorf("core: page %d cached local time %v != %v", j, pl.localTime(id), lt)
		}
		if rt := model.PageRemoteTime(pl.env, pl.p, id); !approxEqual(float64(rt), float64(pl.remoteTime(id)), eps) {
			return fmt.Errorf("core: page %d cached remote time %v != %v", j, pl.remoteTime(id), rt)
		}
		if pt := pl.computePageTime(id); pl.pageT[j] != pt { //repllint:allow float-compare — cache-coherence check demands bit-exact equality
			return fmt.Errorf("core: page %d cached page time %v != recomputed %v", j, pl.pageT[j], pt)
		}
		// The workload's PARTITION order must be what a sort of the page
		// gives: decreasing size, equal sizes in page order.
		pg := &pl.env.W.Pages[j]
		visit := make([]uint16, len(pg.Compulsory))
		for v := range visit {
			visit[v] = uint16(v)
		}
		slices.SortStableFunc(visit, func(a, b uint16) int {
			return cmp.Compare(pl.env.W.ObjectSize(pg.Compulsory[b]), pl.env.W.ObjectSize(pg.Compulsory[a]))
		})
		if got := order.Page(id); !slices.Equal(got, visit) {
			return fmt.Errorf("core: page %d PARTITION order %v != sorted %v", j, got, visit)
		}
		// The stored-but-remote index must be what a scan of the page finds.
		idle := make([]uint64, pl.idleOff[j+1]-pl.idleOff[j])
		for b := range len(pg.Compulsory) + len(pg.Optional) {
			idx, optional := pl.refAt(id, b)
			if k, _ := pl.refOf(id, idx, optional); !pl.isLocal(id, idx, optional) && pl.p.IsStored(pg.Site, k) {
				idle[b>>6] |= 1 << (b & 63)
			}
		}
		if got := pl.idle[pl.idleOff[j]:pl.idleOff[j+1]]; !slices.Equal(got, idle) {
			return fmt.Errorf("core: page %d stored-but-remote index %x != recounted %x", j, got, idle)
		}
	}
	return nil
}

func approxEqual(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return d <= eps*scale
}
