// Package repair turns a (placement, down-site set) pair into a
// deterministic repair plan: the control-plane half of the self-healing
// story. The paper's planner computes one static X/X′ placement and assumes
// every site stays up; when a site dies, every view of its pages degrades to
// the repository's remote chain (Eq. 5 with nothing local) until a human
// replans. This package replans mechanically instead: the dead site's rows
// are zeroed, its pages are re-homed onto surviving sites, the re-homed
// pages run the paper's own PARTITION admission at their new hosts, and the
// Eq. 8-10 constraint restorations plus the off-loading negotiation re-run
// on the survivors only — all through the existing core.Planner machinery,
// so a repair is bit-reproducible for a given (workload, estimates,
// down-set) at any worker count. A symmetric Recover path describes the
// return journey when the site comes back.
//
// The plan is purely declarative: it names the pages re-homed, the replicas
// each survivor must copy in (the re-replication traffic), and the predicted
// objective before and after. internal/controller applies it to a live
// webserve.Cluster; internal/experiments charges its copy bytes against the
// estimated repository rates to model time-to-repair.
package repair

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options controls repair planning.
type Options struct {
	// Workers bounds the per-site restoration concurrency, exactly like
	// core.Options.Workers: 0 means GOMAXPROCS, 1 forces sequential
	// execution, and every value produces byte-identical repair plans.
	Workers int
	// Journal, when non-nil, records one "repair.planned" event per Compute
	// with the down set, re-home count, copy traffic, and the predicted
	// objective before/after. The event is bookkeeping only — it never
	// influences the plan, which stays a pure function of (env, p, down).
	Journal *trace.Journal
}

// Rehome records one page's move off a dead site.
type Rehome struct {
	Page workload.PageID `json:"page"`
	From workload.SiteID `json:"from"`
	To   workload.SiteID `json:"to"`
}

// Copy is the re-replication work order for one surviving site: the objects
// the repaired placement stores there that the pre-failure placement did
// not. The repository holds every object, so each copy streams from it.
type Copy struct {
	Site    workload.SiteID     `json:"site"`
	Objects []workload.ObjectID `json:"objects"`
	Bytes   units.ByteSize      `json:"bytes"`
}

// Delta summarizes what a repair plan changes and predicts.
type Delta struct {
	Rehomed []Rehome `json:"rehomed"`
	Copies  []Copy   `json:"copies,omitempty"`
	// CopyBytes is the total re-replication traffic across all survivors.
	CopyBytes units.ByteSize `json:"copyBytes"`
	// DHealthy is the objective of the original placement with every site up.
	DHealthy float64 `json:"dHealthy"`
	// DBefore is the predicted degraded objective while the down sites'
	// views run entirely over the repository chain (the state PR 3's
	// fallback client leaves the system in).
	DBefore float64 `json:"dBefore"`
	// DAfter is the predicted objective under the repaired placement.
	DAfter float64 `json:"dAfter"`
	// Feasible reports Eq. 8-10 on the survivors under the repaired
	// placement (a false value means the survivors cannot absorb the dead
	// site's workload within their budgets; the plan still helps, but some
	// constraint is violated).
	Feasible bool `json:"feasible"`
}

// Plan is a complete repair: the re-homed environment, the repaired
// placement over it, and the delta against the pre-failure state.
type Plan struct {
	// Down is the sorted, deduplicated dead-site set the plan repairs.
	Down []workload.SiteID
	// Env is the repaired planning environment: the re-homed workload (dead
	// sites host nothing), the original estimates, and budgets with the dead
	// sites zeroed.
	Env *model.Env
	// Placement is the repaired placement over Env.W.
	Placement *model.Placement
	// Delta is the change summary and objective prediction.
	Delta Delta

	origEnv  *model.Env
	origPlan *model.Placement
}

// Original returns the pre-failure environment and placement — what Recover
// reinstates when the down sites return.
func (rp *Plan) Original() (*model.Env, *model.Placement) { return rp.origEnv, rp.origPlan }

// Compute builds the repair plan for placement p (over env) with the sites
// in down dead. At least one site must survive. The computation is a pure
// function of (env, p, down): no randomness, no wall clock, and the same
// bytes from Encode at every Options.Workers value.
func Compute(env *model.Env, p *model.Placement, down []workload.SiteID, opts Options) (*Plan, error) {
	w := env.W
	downSet, err := normalizeDown(w, down)
	if err != nil {
		return nil, err
	}
	survivors := w.NumSites() - len(downSet)
	if survivors < 1 {
		return nil, fmt.Errorf("repair: no surviving site (%d of %d down)", len(downSet), w.NumSites())
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The new homes: each dead page goes to the survivor with the most
	// relative headroom at assignment time (pages visited in ID order, so
	// the rule is deterministic).
	target := assignHomes(env, downSet)

	w2 := rehomeWorkload(w, target)
	b2 := zeroDownBudgets(env.Budgets, downSet)
	env2, err := model.NewEnv(w2, env.Est, b2)
	if err != nil {
		return nil, err
	}
	env2.Alpha1, env2.Alpha2 = env.Alpha1, env.Alpha2

	// Adopt the pre-failure placement on the survivors: the dead sites'
	// stores dropped, the re-homed pages all-remote at their new hosts.
	pl := core.NewPlanner(env2)
	if err := pl.AdoptPlacement(p, down...); err != nil {
		return nil, fmt.Errorf("repair: pre-failure placement: %w", err)
	}

	// Re-run the compulsory/optional split for the dead sites' pages at
	// their new hosts (PARTITION admission, page-ID order).
	moved := make([]workload.PageID, 0, len(target))
	for pid := range target {
		moved = append(moved, pid)
	}
	sort.Slice(moved, func(a, b int) bool { return moved[a] < moved[b] })
	for _, pid := range moved {
		pl.AdmitPage(pid)
	}

	// Restore Eq. 10 and Eq. 8 on the survivors.
	var surviving []workload.SiteID
	for i := 0; i < w.NumSites(); i++ {
		if !downSet[workload.SiteID(i)] {
			surviving = append(surviving, workload.SiteID(i))
		}
	}
	pl.RestoreSites(surviving, workers, nil)

	// Eq. 9: the repository absorbed the dead site's whole local service, so
	// re-negotiate off-loading with the survivors (dead sites have zero
	// capacity and accept nothing).
	pl.OffloadParallel(nil, workers, nil)

	repaired := pl.Placement()
	report := model.Evaluate(env2, repaired)

	sortedDown := slices.Clone(down)
	slices.Sort(sortedDown)
	rp := &Plan{
		Down:      slices.Compact(sortedDown),
		Env:       env2,
		Placement: repaired,
		origEnv:   env,
		origPlan:  p,
	}
	dHealthy, dBefore := objectives(env, p, downSet)
	rp.Delta = Delta{
		Rehomed:  rehomeList(w, target),
		DHealthy: dHealthy,
		DBefore:  dBefore,
		DAfter:   report.D,
		Feasible: report.Feasible(),
	}
	rp.Delta.Copies, rp.Delta.CopyBytes = copySets(w, p, repaired, surviving)
	opts.Journal.Record("repair.planned",
		trace.A("down", fmt.Sprint(rp.Down)),
		trace.I("rehomed", int64(len(rp.Delta.Rehomed))),
		trace.I("copy_bytes", int64(rp.Delta.CopyBytes)),
		trace.F("d_healthy", rp.Delta.DHealthy),
		trace.F("d_degraded", rp.Delta.DBefore),
		trace.F("d_after", rp.Delta.DAfter))
	return rp, nil
}

// Recover describes the return journey once every down site is back: the
// original placement is reinstated, the re-homed pages move home, and each
// survivor re-copies the replicas the repair dropped (the returned site's
// own replicas survived on its disk, so it copies nothing). The result is a
// Delta whose DBefore is the repaired objective and whose DAfter is the
// healthy one.
func (rp *Plan) Recover() Delta {
	w := rp.origEnv.W
	back := make([]Rehome, len(rp.Delta.Rehomed))
	for i, r := range rp.Delta.Rehomed {
		back[i] = Rehome{Page: r.Page, From: r.To, To: r.From}
	}
	var survivors []workload.SiteID
	for i := range workload.SiteID(w.NumSites()) {
		if !slices.Contains(rp.Down, i) {
			survivors = append(survivors, i)
		}
	}
	copies, bytes := copySets(w, rp.Placement, rp.origPlan, survivors)
	return Delta{
		Rehomed:   back,
		Copies:    copies,
		CopyBytes: bytes,
		DHealthy:  rp.Delta.DHealthy,
		DBefore:   rp.Delta.DAfter,
		DAfter:    rp.Delta.DHealthy,
		Feasible:  true,
	}
}

// objectives returns, in one pass over the pages, placement p's objective
// with every site up (model.D) and its degraded objective when the sites in
// down are unreachable and unrepaired: every view of a down site's pages
// fetches the HTML and all compulsory objects over the repository chain
// (Eq. 4 with everything remote — the fallback client's degraded mode),
// and every optional request goes remote. Pages on surviving sites are untouched:
// their server and the repository are both up. Each sum adds the same terms
// in the same order as model.D, so the healthy value is bit-identical to it.
func objectives(env *model.Env, p *model.Placement, down map[workload.SiteID]bool) (healthy, degraded float64) {
	w := env.W
	var h1, h2, d1, d2 float64
	for j := range w.Pages {
		pid := workload.PageID(j)
		pg := &w.Pages[j]
		f := float64(pg.Freq)
		pt, ot := model.PageTimes(env, p, pid)
		t1, t2 := float64(pt), float64(ot)
		h1 += f * t1
		h2 += f * t2
		if !down[pg.Site] {
			d1 += f * t1
			d2 += f * t2
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
	return env.Alpha1*h1 + env.Alpha2*h2, env.Alpha1*d1 + env.Alpha2*d2
}

// DownFreq returns the total page-request rate the down sites hosted — the
// traffic a repair re-homes (and the weight a per-view failover delay
// multiplies in the recovery experiment).
func DownFreq(w *workload.Workload, down map[workload.SiteID]bool) float64 {
	sum := 0.0
	for j := range w.Pages {
		if down[w.Pages[j].Site] {
			sum += float64(w.Pages[j].Freq)
		}
	}
	return sum
}

// Encode renders the plan deterministically: the down set, the delta, and
// the repaired placement, as one JSON document. Two equal plans encode to
// identical bytes — the property the determinism tests pin.
func (rp *Plan) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := rp.Placement.Encode(&buf); err != nil {
		return nil, err
	}
	placement := json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n"))
	return json.MarshalIndent(struct {
		Down      []workload.SiteID `json:"down"`
		Delta     Delta             `json:"delta"`
		Placement json.RawMessage   `json:"placement"`
	}{rp.Down, rp.Delta, placement}, "", "  ")
}

// normalizeDown validates and dedups the down set.
func normalizeDown(w *workload.Workload, down []workload.SiteID) (map[workload.SiteID]bool, error) {
	if len(down) == 0 {
		return nil, fmt.Errorf("repair: empty down set")
	}
	set := make(map[workload.SiteID]bool, len(down))
	for _, i := range down {
		if i < 0 || int(i) >= w.NumSites() {
			return nil, fmt.Errorf("repair: down site %d out of range (workload has %d sites)", i, w.NumSites())
		}
		set[i] = true
	}
	return set, nil
}

// assignHomes picks each dead page's new host. Pages are visited in ID
// order; for each, the candidate pool is the survivors with remaining
// Eq. 8 capacity headroom (all survivors when none has any), and the
// winner is the candidate whose repository link serves the page's
// worst-case remote chain (HTML + every compulsory object over
// RepoOvhd/RepoRate) fastest — at tight storage most re-homed bytes flow
// over that link, so picking by load share alone can hand a community to
// a slow survivor and make the repair worse than the repository fallback
// it replaces. Ties fall back to the smallest projected load share (load
// over capacity when finite), then the lowest site ID, and the headroom
// guard keeps any one well-connected survivor from absorbing more traffic
// than Eq. 8 lets it serve.
func assignHomes(env *model.Env, down map[workload.SiteID]bool) map[workload.PageID]workload.SiteID {
	w, b := env.W, env.Budgets
	load := make([]float64, w.NumSites())
	for j := range w.Pages {
		load[w.Pages[j].Site] += float64(w.Pages[j].Freq)
	}
	share := func(i workload.SiteID, extra float64) float64 {
		v := load[i] + extra
		if c := float64(b.SiteCapacity[i]); c > 0 && !math.IsInf(c, 1) {
			return v / c
		}
		return v
	}
	headroom := func(i workload.SiteID, extra float64) bool {
		c := float64(b.SiteCapacity[i])
		if c <= 0 || math.IsInf(c, 1) {
			return true
		}
		return load[i]+extra <= c
	}
	target := make(map[workload.PageID]workload.SiteID)
	for j := range w.Pages {
		pg := &w.Pages[j]
		if !down[pg.Site] {
			continue
		}
		bytes := pg.HTMLSize
		for _, k := range pg.Compulsory {
			bytes += w.ObjectSize(k)
		}
		pick := func(requireHeadroom bool) workload.SiteID {
			best := workload.SiteID(-1)
			bestT, bestShare := math.Inf(1), math.Inf(1)
			for i := 0; i < w.NumSites(); i++ {
				id := workload.SiteID(i)
				if down[id] || (requireHeadroom && !headroom(id, float64(pg.Freq))) {
					continue
				}
				est := env.Est.Sites[id]
				t := float64(est.RepoOvhd + est.RepoRate.TransferTime(bytes))
				s := share(id, float64(pg.Freq))
				if t < bestT || (t == bestT && s < bestShare) { //repllint:allow float-compare — exact-bits tie-break; an epsilon would make the argmin order-dependent
					best, bestT, bestShare = id, t, s
				}
			}
			return best
		}
		best := pick(true)
		if best < 0 {
			best = pick(false)
		}
		target[workload.PageID(j)] = best
		load[best] += float64(pg.Freq)
	}
	return target
}

// rehomeWorkload derives a copy of w (Workload.Derive) with each page in
// target moved to its new host: Pages[j].Site updated, per-site page lists
// rebuilt in page-ID order, and each gaining site's object pool extended
// with the references it inherits. Object and page identities are
// untouched, so placements over the copy index identically to placements
// over w, and the copy shares w's PARTITION order.
func rehomeWorkload(w *workload.Workload, target map[workload.PageID]workload.SiteID) *workload.Workload {
	w2 := w.Derive()
	for pid, to := range target {
		w2.Pages[pid].Site = to
	}
	pages := make([][]workload.PageID, len(w2.Sites))
	for j := range w2.Pages {
		pages[w2.Pages[j].Site] = append(pages[w2.Pages[j].Site], workload.PageID(j))
	}
	for i := range w2.Sites {
		w2.Sites[i].Pages = pages[i]
		w2.Sites[i].Objects = extendPool(w, w2.Sites[i].Objects, pages[i])
	}
	return w2
}

// extendPool unions a site's object pool with the references of its (new)
// page list, ascending: every ID is marked in a dense set over the
// workload's objects, and the marked IDs are read back in order.
func extendPool(w *workload.Workload, pool []workload.ObjectID, pages []workload.PageID) []workload.ObjectID {
	mark := bitset.New(w.NumObjects())
	for _, k := range pool {
		mark.Set(int(k))
	}
	for _, pid := range pages {
		pg := &w.Pages[pid]
		for _, k := range pg.Compulsory {
			mark.Set(int(k))
		}
		for _, l := range pg.Optional {
			mark.Set(int(l.Object))
		}
	}
	n := mark.Count()
	if n == 0 {
		return nil
	}
	out := make([]workload.ObjectID, 0, n)
	mark.ForEach(func(k int) bool {
		out = append(out, workload.ObjectID(k))
		return true
	})
	return out
}

// zeroDownBudgets copies the budgets with every dead site's storage and
// capacity zeroed: Eq. 8-10 on survivors only.
func zeroDownBudgets(b model.Budgets, down map[workload.SiteID]bool) model.Budgets {
	out := model.Budgets{
		Storage:      append([]units.ByteSize(nil), b.Storage...),
		SiteCapacity: append([]units.ReqPerSec(nil), b.SiteCapacity...),
		RepoCapacity: b.RepoCapacity,
	}
	for i := range out.Storage {
		if down[workload.SiteID(i)] {
			out.Storage[i] = 0
			out.SiteCapacity[i] = 0
		}
	}
	return out
}

// rehomeList renders the target map as a sorted Rehome list.
func rehomeList(w *workload.Workload, target map[workload.PageID]workload.SiteID) []Rehome {
	out := make([]Rehome, 0, len(target))
	for pid, to := range target {
		out = append(out, Rehome{Page: pid, From: w.Pages[pid].Site, To: to})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Page < out[b].Page })
	return out
}

// copySets lists, per surviving site, the objects placement b stores there
// that placement a does not — the replicas to stream from the repository.
func copySets(w *workload.Workload, a, b *model.Placement, survivors []workload.SiteID) ([]Copy, units.ByteSize) {
	var out []Copy
	var total units.ByteSize
	for _, i := range survivors {
		var c Copy
		c.Site = i
		b.StoredSet(i).ForEach(func(kk int) bool {
			k := workload.ObjectID(kk)
			if !a.IsStored(i, k) {
				c.Objects = append(c.Objects, k)
				c.Bytes += w.ObjectSize(k)
			}
			return true
		})
		if len(c.Objects) > 0 {
			out = append(out, c)
			total += c.Bytes
		}
	}
	return out, total
}
