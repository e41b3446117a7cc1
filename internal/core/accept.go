package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/units"
	"repro/internal/workload"
)

// AcceptResult reports how a site responded to an off-loading request.
type AcceptResult struct {
	Site     workload.SiteID
	Target   units.ReqPerSec // workload the repository asked the site to take
	Accepted units.ReqPerSec // workload actually moved local
	Stored   int             // new replicas created while accepting
	Swapped  int             // replicas exchanged by the swap phase
}

// freeCapacity returns P(S_i): the processing capacity left at site i.
// An unconstrained site reports +Inf; the coordinator clamps it.
func (pl *Planner) freeCapacity(i workload.SiteID) float64 {
	c := float64(pl.env.Budgets.SiteCapacity[i])
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	v := c - pl.siteLocalLoad[i]
	if v < 0 {
		return 0
	}
	return v
}

// freeSpace returns Space(S_i): the storage left at site i in bytes.
func (pl *Planner) freeSpace(i workload.SiteID) units.ByteSize {
	v := pl.env.Budgets.Storage[i] - pl.p.StorageUsed(i)
	if v < 0 {
		return 0
	}
	return v
}

// AcceptWorkload implements the local server's side of the off-loading
// protocol (Section 4.2): move up to target req/s of repository downloads to
// the local server, choosing the (W_j, M_k) pairs with the minimum increase
// in response time per req/s gained — the mirror of the processing-
// restoration criterion. Three escalating sources are used, per the paper:
// already-stored objects first (always allowed), then newly stored objects
// when storage permits (the L1 case), then a swap phase that deallocates
// low-traffic replicas to make room for higher-traffic ones (the L2 last
// resort). The site never exceeds its own processing capacity.
func (pl *Planner) AcceptWorkload(i workload.SiteID, target units.ReqPerSec) AcceptResult {
	res := AcceptResult{Site: i, Target: target}
	// soft is the repository's quota; hard is the site's own Eq. 8
	// headroom. A flip may overshoot the quota (the last pair rarely lands
	// exactly on it) but never the capacity.
	soft := float64(target)
	hard := pl.freeCapacity(i)
	if soft <= 1e-12 || hard <= 1e-12 {
		return res
	}
	if soft > hard {
		soft = hard
	}
	gained := pl.acceptByFlipping(i, soft, hard, &res)
	if soft-gained > 1e-9 {
		gained += pl.acceptBySwapping(i, soft-gained, hard-gained, &res)
	}
	res.Accepted = units.ReqPerSec(gained)
	return res
}

// acceptByFlipping flips repository downloads local, storing new objects as
// space allows, until the soft quota is met (possibly overshooting it by
// one flip, within the hard capacity headroom) or candidates run out.
// Returns the req/s gained.
func (pl *Planner) acceptByFlipping(i workload.SiteID, soft, hard float64, res *AcceptResult) float64 {
	key := func(j workload.PageID, idx int, optional bool) float64 {
		_, gain := pl.refOf(j, idx, optional)
		return pl.previewFlip(j, idx, optional, true) / gain
	}
	h := pl.refHeap(i, false, key)
	recompute := func(id int64) (float64, bool) {
		j, idx, optional := decodeRef(id)
		if pl.isLocal(j, idx, optional) {
			return 0, false
		}
		k, _ := pl.refOf(j, idx, optional)
		// A flip needs the object stored, or storable within free space.
		if !pl.p.IsStored(i, k) && pl.env.W.ObjectSize(k) > pl.freeSpace(i) {
			return 0, false
		}
		return key(j, idx, optional), true
	}

	gained := 0.0
	for soft-gained > 1e-9 {
		id, _, ok := h.popFresh(recompute)
		if !ok {
			return gained
		}
		j, idx, optional := decodeRef(id)
		k, gain := pl.refOf(j, idx, optional)
		if gain > hard-gained+1e-9 {
			// Taking this pair would violate the site's own capacity; a
			// later candidate may carry a smaller gain (optional links),
			// so skip this one permanently rather than stopping.
			continue
		}
		if !pl.p.IsStored(i, k) {
			pl.store(i, k)
			res.Stored++
		}
		pl.flip(j, idx, optional, true)
		gained += gain
	}
	return gained
}

// acceptBySwapping implements the paper's last resort: deallocating stored
// objects and allocating others can raise the site's local workload when
// the store is full. Stored replicas are ranked by the local request rate
// they carry (ascending); absent objects by the rate they could carry
// (descending). A swap happens when the incoming object gains strictly more
// workload than the outgoing one loses and the space works out. Returns the
// net req/s gained.
func (pl *Planner) acceptBySwapping(i workload.SiteID, soft, hard float64, res *AcceptResult) float64 {
	type entry struct {
		k    workload.ObjectID
		rate float64
		size units.ByteSize
	}

	// The local request rate each stored object carries and the rate each
	// absent object could carry (all of an absent object's references are
	// repository-marked), summed in page order in the site's rate buffer at
	// the object's first position in the site's (object) index.
	off, refs := pl.env.W.SiteIndex(i)
	rate := pl.scratch[i].rate
	if rate == nil {
		rate = make([]float64, len(refs))
		pl.scratch[i].rate = rate
	} else {
		clear(rate)
	}
	for _, pid := range pl.env.W.Sites[i].Pages {
		pg := &pl.env.W.Pages[pid]
		for idx, k := range pg.Compulsory {
			if pl.p.CompLocal(pid, idx) || !pl.p.IsStored(i, k) {
				rate[off[k]] += float64(pg.Freq)
			}
		}
		for idx, l := range pg.Optional {
			if pl.p.OptLocal(pid, idx) || !pl.p.IsStored(i, l.Object) {
				rate[off[l.Object]] += float64(pg.Freq) * l.Prob
			}
		}
	}

	var outs, ins []entry
	pl.p.StoredSet(i).ForEach(func(kk int) bool {
		k := workload.ObjectID(kk)
		carried := 0.0
		if off[k] < off[k+1] {
			carried = rate[off[k]]
		}
		outs = append(outs, entry{k, carried, pl.env.W.ObjectSize(k)})
		return true
	})
	for at := 0; at < len(refs); {
		r := refs[at]
		k, _ := pl.refOf(r.Page, int(r.Idx), r.Optional)
		if !pl.p.IsStored(i, k) {
			ins = append(ins, entry{k, rate[at], pl.env.W.ObjectSize(k)})
		}
		at = int(off[k+1])
	}
	slices.SortFunc(outs, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.rate, b.rate), cmp.Compare(a.k, b.k))
	})
	slices.SortFunc(ins, func(a, b entry) int {
		return cmp.Or(cmp.Compare(b.rate, a.rate), cmp.Compare(a.k, b.k))
	})

	gained := 0.0
	for _, in := range ins {
		if soft-gained <= 1e-9 {
			break
		}
		if in.rate <= 1e-12 || in.rate > hard-gained+1e-9 {
			continue
		}
		// Free space for the incoming object by evicting the cheapest
		// replicas whose combined carried rate stays strictly below the
		// gain (outs is sorted ascending, so once the cumulative lost rate
		// reaches the gain no later candidate can help either).
		var evict []entry
		freed := pl.freeSpace(i)
		lost := 0.0
		for _, cand := range outs {
			if freed >= in.size {
				break
			}
			if !pl.p.IsStored(i, cand.k) {
				continue // already evicted by an earlier swap
			}
			if lost+cand.rate >= in.rate {
				break
			}
			evict = append(evict, cand)
			freed += cand.size
			lost += cand.rate
		}
		if freed < in.size {
			continue // cannot make room profitably
		}
		for _, e := range evict {
			pl.deallocate(i, e.k)
		}
		pl.store(i, in.k)
		res.Stored++
		res.Swapped += len(evict)
		// Flip every repository reference of the incoming object local.
		for _, r := range pl.refsOf(i, in.k) {
			pl.flip(r.Page, int(r.Idx), r.Optional, true)
		}
		gained += in.rate - lost
	}
	return gained
}
