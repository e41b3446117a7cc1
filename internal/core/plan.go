package core

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/model"
	"repro/internal/trace"
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
// planner has every site's (object) index built, so no copy builds one,
// and it is never written after Partition returns, so concurrent Plan
// calls on one Partitioned are safe.
type Partitioned struct {
	pl *Planner
}

// Partition builds a planner for env and runs PARTITION over its pages at
// opts.Workers, under a trace.SpanPartition child of opts.Trace, then builds
// every site's (object) index. Only opts.Workers, opts.UnsortedPartition and
// opts.Trace are read.
func Partition(env *model.Env, opts Options) *Partitioned {
	pl := partition(env, opts)
	fanOut(workerCount(opts), env.W.NumSites(), nil, func(i int) {
		pl.siteIndex(workload.SiteID(i))
	})
	return &Partitioned{pl: pl}
}

// partition is Partition without the index build: core.Plan's planner
// builds a site's index only when a phase of that site first reads it.
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
	base := pt.pl
	switch {
	case env.W != base.env.W:
		return nil, nil, fmt.Errorf("core: planning a partition on another workload")
	case env.Est != base.env.Est:
		return nil, nil, fmt.Errorf("core: planning a partition under other estimates")
	case opts.UnsortedPartition != base.UnsortedPartition:
		return nil, nil, fmt.Errorf("core: planning a partition with UnsortedPartition=%v; it was partitioned with %v",
			opts.UnsortedPartition, base.UnsortedPartition)
	}
	return base.copyFor(env).finish(opts)
}

// copyFor returns a planner over env in pl's state. It copies the cells a
// page or a site owns (DESIGN §8), starts the per-site scratch fresh, and
// shares the per-link constants and every built site index, which nothing
// writes after it is built; the per-site index headers are its own, so a
// copy that builds a site's index never writes a shared cell.
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
	c.refOff = slices.Clone(pl.refOff)
	c.refs = slices.Clone(pl.refs)
	c.scratch = make([]siteScratch, len(pl.scratch))
	return &c
}

// finish runs the budget-dependent phases on a partitioned planner —
// restoration and the refine sweep per site, then the off-loading
// negotiation — and evaluates the result.
func (pl *Planner) finish(opts Options) (*model.Placement, *Result, error) {
	pl.NoRepartition = opts.NoRepartition
	workers := workerCount(opts)
	sites := make([]workload.SiteID, pl.env.W.NumSites())
	for i := range sites {
		sites[i] = workload.SiteID(i)
	}
	stats := pl.RestoreSites(sites, workers, opts.Refine, opts.Trace)
	off := pl.OffloadParallel(opts.MessageLog, workers, opts.Trace)

	res := &Result{Sites: stats, Offload: off, D: pl.D(), D1: pl.D1(), D2: pl.D2()}
	fillSiteStats(pl, res)
	res.Report = model.Evaluate(pl.env, pl.p)
	res.Feasible = res.Report.Feasible()
	return pl.p, res, nil
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
