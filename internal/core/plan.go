package core

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options controls plan execution.
type Options struct {
	// Workers bounds the planning concurrency of every phase: PARTITION,
	// restoration and off-loading acceptance each fan out over sites, so
	// no phase runs more workers than there are sites. 0 means
	// GOMAXPROCS, 1 forces sequential execution. Every value
	// produces byte-identical placements, message logs and statistics and
	// an identical D (see parallel.go for why).
	Workers int
	// MessageLog, when non-nil, receives one line per off-loading protocol
	// message.
	MessageLog io.Writer
	// UnsortedPartition and NoRepartition are ablation switches for the
	// two design choices Section 4.2 calls out: the decreasing-size visit
	// order of PARTITION and the re-partitioning step after storage
	// deallocations. Normal planning leaves both false.
	UnsortedPartition bool
	NoRepartition     bool
	// Refine enables the post-restoration improvement sweep (an extension
	// beyond the paper — see Planner.RefineSite): profitable objects that
	// fit in the space freed by the restoration are stored after all.
	Refine bool
	// Trace, when non-nil, is the parent under which each planning phase
	// starts one child span (trace.SpanPartition … trace.SpanOffload) with
	// its busy time and its dealloc/flip/round/message counters as
	// attributes; the caller ends it. The nil default costs no clock read
	// and no allocation.
	Trace *trace.Active
}

// SiteStats records what planning did at one site.
type SiteStats struct {
	Site          workload.SiteID
	LocalComp     int // compulsory downloads assigned to the site
	RemoteComp    int // compulsory downloads left on the repository
	LocalOpt      int // optional links assigned to the site
	StoredObjects int // replicas held after planning
	Deallocs      int // storage-restoration deallocations
	ProcFlips     int // processing-restoration flips
}

// Result reports a complete planning run.
type Result struct {
	Sites    []SiteStats
	Offload  OffloadStats
	D        float64 // final composite objective under the estimates
	D1, D2   float64
	Feasible bool
	Report   *model.Report
}

// Plan runs the full pipeline of Section 4 over the environment: PARTITION,
// storage restoration (Eq. 10) and processing restoration (Eq. 8) fanned
// out over sites, followed by the repository off-loading negotiation
// (Eq. 9) with each phase's acceptance decisions fanned out over the sites
// asked. The placement and the objective are byte-identical for every
// Workers value. It returns the placement and a result report.
func Plan(env *model.Env, opts Options) (*model.Placement, *Result, error) {
	return partition(env, opts).finish(opts)
}

// Partitioned is a workload's PARTITION outcome, computed once and planned
// from many times: NewPlanner and PARTITION read only the environment's
// workload and estimates (TestPartitionIgnoresBudgets), so every budget
// and α over that workload starts from the same partitioned state. Its
// workload has every site's (object) index built, so no copy builds one,
// and its planner is never written after Partition returns, so concurrent
// Plan calls on one Partitioned are safe.
type Partitioned struct {
	pl *Planner
}

// Partition builds a planner for env and runs PARTITION over its pages at
// opts.Workers, under a trace.SpanPartition child of opts.Trace, then builds
// every site's (object) index on env's workload. Only opts.Workers,
// opts.UnsortedPartition and opts.Trace are read.
func Partition(env *model.Env, opts Options) *Partitioned {
	pl := partition(env, opts)
	fanOut(workerCount(opts), env.W.NumSites(), nil, func(i int) {
		env.W.SiteIndex(workload.SiteID(i))
	})
	return &Partitioned{pl: pl}
}

// partition is Partition without the index build: under core.Plan a
// site's index is built only when a phase of that site first reads it.
func partition(env *model.Env, opts Options) *Planner {
	pl := NewPlanner(env)
	pl.UnsortedPartition = opts.UnsortedPartition
	pl.PartitionParallel(workerCount(opts), opts.Trace)
	return pl
}

// Plan finishes a copy of the partitioned planner under env's budgets and
// weights — restoration, off-loading and evaluation, as core.Plan does —
// and returns what core.Plan(env, opts) returns, bit for bit. env must
// share the partition's workload and estimates (the pointers, not equal
// copies) and opts its UnsortedPartition.
func (pt *Partitioned) Plan(env *model.Env, opts Options) (*model.Placement, *Result, error) {
	if err := pt.check(env, opts); err != nil {
		return nil, nil, err
	}
	return pt.pl.copyFor(env).finish(opts)
}

// check refuses an environment or options the partition was not made for.
func (pt *Partitioned) check(env *model.Env, opts Options) error {
	base := pt.pl
	switch {
	case env.W != base.env.W:
		return fmt.Errorf("core: planning a partition on another workload")
	case env.Est != base.env.Est:
		return fmt.Errorf("core: planning a partition under other estimates")
	case opts.UnsortedPartition != base.UnsortedPartition:
		return fmt.Errorf("core: planning a partition with UnsortedPartition=%v; it was partitioned with %v",
			opts.UnsortedPartition, base.UnsortedPartition)
	}
	return nil
}

// Sweep plans a sequence of budgets over one Partitioned by carrying one
// copy of the partition through them. Restoration (§4.2) is a greedy loop
// whose sequence of choices does not depend on the budget — only the point
// where it stops does — so a point no looser than the last one is the last
// one's restoration run further. A Sweep is not safe for concurrent use;
// its Partitioned still is.
type Sweep struct {
	pt *Partitioned
	// pl is the carried planner, restored to the last point's budgets (nil
	// before the first point), and carry each site's restoration in progress.
	pl    *Planner
	carry []siteRestore
	sites []workload.SiteID
	// The last point's per-site budgets and weights, copied: a caller may
	// reuse its budget slices.
	storage        []units.ByteSize
	capacity       []units.ReqPerSec
	alpha1, alpha2 float64
}

// Sweep returns a planner that carries one copy of the partition through a
// sequence of budgets; walk a grid from the loosest budget down.
func (pt *Partitioned) Sweep() *Sweep { return &Sweep{pt: pt} }

// Plan returns what pt.Plan(env, opts) returns, bit for bit. It runs the
// carried restoration further, down to env's budgets, when every site's
// storage budget and capacity are no larger than at the last call and no
// site whose processing restoration has started loses storage (storage
// restoration must not pop after processing restoration has changed the
// site); otherwise it restarts from a fresh copy of the partition. So
// correctness never depends on the order of calls, only speed does. The
// refine sweep and an off-loading negotiation that will run work on a copy
// of the carried planner; otherwise the point finishes in place and only
// the returned placement is cloned.
func (sw *Sweep) Plan(env *model.Env, opts Options) (*model.Placement, *Result, error) {
	if err := sw.pt.check(env, opts); err != nil {
		return nil, nil, err
	}
	if !sw.continues(env, opts) {
		sw.pl = sw.pt.pl.copyFor(env)
		sw.pl.NoRepartition = opts.NoRepartition
		sw.carry = make([]siteRestore, env.W.NumSites())
		sw.sites = siteIDs(env.W.NumSites())
		sw.alpha1, sw.alpha2 = env.Alpha1, env.Alpha2
	}
	sw.pl.env = env
	sw.storage = append(sw.storage[:0], env.Budgets.Storage...)
	sw.capacity = append(sw.capacity[:0], env.Budgets.SiteCapacity...)
	stats := sw.pl.restoreSites(sw.sites, sw.carry, workerCount(opts), opts.Trace)
	if opts.Refine || sw.pl.repoOverloaded() {
		return sw.pl.copyFor(env).complete(stats, opts)
	}
	p, res, err := sw.pl.complete(stats, opts)
	return p.Clone(), res, err
}

// continues reports whether the carried restoration can run on to env's
// budgets under opts.
func (sw *Sweep) continues(env *model.Env, opts Options) bool {
	if sw.pl == nil || opts.NoRepartition != sw.pl.NoRepartition ||
		env.Alpha1 != sw.alpha1 || env.Alpha2 != sw.alpha2 { //repllint:allow float-compare — any change of α re-keys every heap
		return false
	}
	for i := range sw.carry {
		s, c := env.Budgets.Storage[i], env.Budgets.SiteCapacity[i]
		if s > sw.storage[i] || c > sw.capacity[i] || s < sw.storage[i] && sw.carry[i].proc.built() {
			return false
		}
	}
	return true
}

// copyFor returns a planner over env in pl's state. It copies the cells a
// page or a site owns (DESIGN §8), starts the per-site scratch fresh, and
// shares the per-link constants, which nothing writes after NewPlanner.
func (pl *Planner) copyFor(env *model.Env) *Planner {
	c := *pl
	c.env = env
	c.p = pl.p.Clone()
	c.localBytes = slices.Clone(pl.localBytes)
	c.remoteBytes = slices.Clone(pl.remoteBytes)
	c.pageT = slices.Clone(pl.pageT)
	c.d1Site = slices.Clone(pl.d1Site)
	c.d2Site = slices.Clone(pl.d2Site)
	c.siteLocalLoad = slices.Clone(pl.siteLocalLoad)
	c.siteRepoLoad = slices.Clone(pl.siteRepoLoad)
	c.localMarks = slices.Clone(pl.localMarks)
	c.siteRefs = slices.Clone(pl.siteRefs)
	c.idle = slices.Clone(pl.idle)
	c.scratch = make([]siteScratch, len(pl.scratch))
	return &c
}

// finish restores every site of a partitioned planner afresh and completes
// the plan.
func (pl *Planner) finish(opts Options) (*model.Placement, *Result, error) {
	pl.NoRepartition = opts.NoRepartition
	stats := pl.restoreSites(siteIDs(pl.env.W.NumSites()), nil, workerCount(opts), opts.Trace)
	return pl.complete(stats, opts)
}

// complete runs the phases after restoration on pl — the refine sweep per
// site when opts.Refine is set, then the off-loading negotiation — and
// evaluates the result; stats are the sites' restoration counts.
func (pl *Planner) complete(stats []SiteStats, opts Options) (*model.Placement, *Result, error) {
	workers := workerCount(opts)
	if opts.Refine {
		sp := opts.Trace.StartChild(trace.SpanRefine)
		fanOut(workers, pl.env.W.NumSites(), sp, func(i int) {
			pl.RefineSite(workload.SiteID(i))
		})
		sp.End()
	}
	off := pl.OffloadParallel(opts.MessageLog, workers, opts.Trace)

	res := &Result{Sites: stats, Offload: off, D: pl.D(), D1: pl.D1(), D2: pl.D2()}
	fillSiteStats(pl, res)
	res.Report = model.Evaluate(pl.env, pl.p)
	res.Feasible = res.Report.Feasible()
	return pl.p, res, nil
}

// siteIDs lists the site IDs 0..n-1.
func siteIDs(n int) []workload.SiteID {
	sites := make([]workload.SiteID, n)
	for i := range sites {
		sites[i] = workload.SiteID(i)
	}
	return sites
}

// workerCount resolves opts.Workers: 0 means GOMAXPROCS.
func workerCount(opts Options) int {
	if opts.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return opts.Workers
}

// fillSiteStats reads the final assignment shape per site off the
// planner's counters.
func fillSiteStats(pl *Planner, res *Result) {
	for i, n := range pl.siteRefs {
		st := &res.Sites[i]
		st.StoredObjects = pl.p.StoredSet(workload.SiteID(i)).Count()
		st.LocalComp, st.RemoteComp, st.LocalOpt = n.localComp, n.comp-n.localComp, n.localOpt
	}
}

// Write renders the result as a human-readable report.
func (r *Result) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "plan: D=%.2f (D1=%.2f, D2=%.2f), feasible=%v\n", r.D, r.D1, r.D2, r.Feasible); err != nil {
		return err
	}
	for _, s := range r.Sites {
		if _, err := fmt.Fprintf(w, "site %2d: %d local / %d remote compulsory, %d local optional, %d replicas (deallocs %d, flips %d)\n",
			s.Site, s.LocalComp, s.RemoteComp, s.LocalOpt, s.StoredObjects, s.Deallocs, s.ProcFlips); err != nil {
			return err
		}
	}
	if r.Offload.Ran {
		if _, err := fmt.Fprintf(w, "offload: %d rounds, %d messages, moved %.2f req/s local, restored=%v\n",
			r.Offload.Rounds, r.Offload.Messages, float64(r.Offload.MovedLocal), r.Offload.Restored); err != nil {
			return err
		}
	}
	return nil
}
