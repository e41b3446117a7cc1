package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// ObjectExplanation is one compulsory object's line in a page explanation.
type ObjectExplanation struct {
	Object workload.ObjectID
	Size   units.ByteSize
	Local  bool
	Stored bool
	// FlipDelta is the change in D if this object alone moved to the other
	// side right now (negative = the flip would reduce D).
	FlipDelta float64
	// FlipFeasible reports whether that flip respects Eq. 10: a flip to
	// local needs the object stored or storable in the site's free space.
	// A profitable-but-infeasible flip is the storage restoration's doing
	// (the paper's trade of time for space), not a planning defect.
	FlipFeasible bool
}

// PageExplanation is a structured account of why a page's split looks the
// way it does — the operator-facing view of the planner's decision.
type PageExplanation struct {
	Page       workload.PageID
	Site       workload.SiteID
	Freq       units.ReqPerSec
	HTMLSize   units.ByteSize
	LocalTime  units.Seconds // Eq. 3 under the estimates
	RemoteTime units.Seconds // Eq. 4
	PageTime   units.Seconds // Eq. 5
	// Bound names the chain that determines the page time.
	Bound   string
	Objects []ObjectExplanation
}

// AdoptPlacement rebuilds the planner's incremental state from an existing
// placement over the same workload (e.g. one loaded from disk), so
// explanations and further planning phases can run against it. The planner
// must be freshly constructed (all-remote).
func (pl *Planner) AdoptPlacement(p *model.Placement) error {
	w := pl.env.W
	if p.Workload().NumPages() != w.NumPages() || p.Workload().NumSites() != w.NumSites() {
		return fmt.Errorf("core: placement shaped for a different workload")
	}
	if err := p.CheckInvariants(); err != nil {
		return err
	}
	for i := range w.Sites {
		id := workload.SiteID(i)
		p.StoredSet(id).ForEach(func(k int) bool {
			pl.store(id, workload.ObjectID(k))
			return true
		})
	}
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if p.CompLocal(pid, idx) {
				pl.flipComp(pid, idx, true)
			}
		}
		for idx := range w.Pages[j].Optional {
			if p.OptLocal(pid, idx) {
				pl.flipOpt(pid, idx, true)
			}
		}
	}
	return nil
}

// Explain produces the explanation for page j in the planner's current
// state. Objects are listed in decreasing size (PARTITION's visit order).
func (pl *Planner) Explain(j workload.PageID) *PageExplanation {
	pg := &pl.env.W.Pages[j]
	ex := &PageExplanation{
		Page:       j,
		Site:       pg.Site,
		Freq:       pg.Freq,
		HTMLSize:   pg.HTMLSize,
		LocalTime:  pl.localTime(j),
		RemoteTime: pl.remoteTime(j),
		PageTime:   pl.pageTime(j),
	}
	if ex.LocalTime >= ex.RemoteTime {
		ex.Bound = "local"
	} else {
		ex.Bound = "repository"
	}
	for idx, k := range pg.Compulsory {
		local := pl.p.CompLocal(j, idx)
		stored := pl.p.IsStored(pg.Site, k)
		feasible := true
		if !local && !stored && pl.env.W.ObjectSize(k) > pl.freeSpace(pg.Site) {
			feasible = false
		}
		ex.Objects = append(ex.Objects, ObjectExplanation{
			Object:       k,
			Size:         pl.env.W.ObjectSize(k),
			Local:        local,
			Stored:       stored,
			FlipDelta:    pl.previewFlipComp(j, idx, !local),
			FlipFeasible: feasible,
		})
	}
	sort.Slice(ex.Objects, func(a, b int) bool {
		if ex.Objects[a].Size != ex.Objects[b].Size {
			return ex.Objects[a].Size > ex.Objects[b].Size
		}
		return ex.Objects[a].Object < ex.Objects[b].Object
	})
	return ex
}

// Write renders the explanation.
func (ex *PageExplanation) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "page W%d @ S%d  f=%v  HTML %v\n", ex.Page, ex.Site, ex.Freq, ex.HTMLSize); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "chains: local %v | repository %v  ->  page time %v (%s-bound)\n",
		ex.LocalTime, ex.RemoteTime, ex.PageTime, ex.Bound); err != nil {
		return err
	}
	for _, o := range ex.Objects {
		side := "repository"
		if o.Local {
			side = "local     "
		}
		note := ""
		switch {
		case o.FlipDelta < -1e-9 && !o.FlipFeasible:
			note = "  (flip would help but the storage budget forbids it)"
		case o.FlipDelta < -1e-9:
			note = fmt.Sprintf("  (WARNING: feasible flip would improve D by %.3f)", -o.FlipDelta)
		case !o.Local && o.Stored:
			note = "  (stored but repository-assigned: the local chain is the bottleneck)"
		}
		if _, err := fmt.Fprintf(w, "  M%-6d %9v  %s  flip ΔD %+8.3f%s\n", o.Object, o.Size, side, o.FlipDelta, note); err != nil {
			return err
		}
	}
	return nil
}
