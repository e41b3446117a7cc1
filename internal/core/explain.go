package core

import (
	"fmt"
	"io"

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
// placement (e.g. one loaded from disk), so explanations and further
// planning phases can run against it. The planner must be freshly
// constructed (all-remote). The sites in down are left out: their stores,
// and the marks of the pages p's workload hosts there. p may be over another
// workload with the same pages and objects in which only those pages sit
// elsewhere — a repair's pre-failure placement over its re-homed clone — so
// they arrive all-remote at their new hosts.
//
// One pass over the pages copies p's marks in. Each local mark makes the
// float additions a flipComp or flipOpt to local would make, in page
// order, compulsory before optional, so every cached sum adds the same
// terms in the same order as flips from the all-remote state to p would;
// the site's sums ride in locals across the page.
func (pl *Planner) AdoptPlacement(p *model.Placement, down ...workload.SiteID) error {
	w, pw := pl.env.W, p.Workload()
	if pw.NumPages() != w.NumPages() || pw.NumSites() != w.NumSites() || pw.NumObjects() != w.NumObjects() {
		return fmt.Errorf("core: placement shaped for a different workload")
	}
	if err := p.CheckInvariants(); err != nil {
		return err
	}
	dead := make([]bool, w.NumSites())
	for _, i := range down {
		dead[i] = true
	}
	for i := range workload.SiteID(w.NumSites()) {
		if !dead[i] {
			pl.p.CopyStore(i, p)
		}
	}
	for j := range w.Pages {
		pid, pg := workload.PageID(j), &w.Pages[j]
		keep := !dead[pw.Pages[j].Site]
		if keep && pw.Pages[j].Site != pg.Site {
			return fmt.Errorf("core: page %d moved off live site %d", j, pw.Pages[j].Site)
		}
		s, f := pg.Site, float64(pg.Freq)
		stored, marks := pl.p.StoredSet(s), pl.localMarks[pl.slot(s, 0):pl.slot(s+1, 0)]
		load, repo, d1, d2 := pl.siteLocalLoad[s], pl.siteRepoLoad[s], pl.d1Site[s], pl.d2Site[s]
		for idx, k := range pg.Compulsory {
			if !keep || !p.CompLocal(pid, idx) {
				if stored.Test(int(k)) {
					pl.setIdle(pid, idx, false, true)
				}
				continue
			}
			size := w.ObjectSize(k)
			oldT := pl.pageT[j]
			pl.localBytes[j] += size
			pl.remoteBytes[j] -= size
			load += f
			repo -= f
			marks[k]++
			pl.siteRefs[s].localComp++
			pl.p.SetCompLocal(pid, idx, true)
			newT := pl.computePageTime(pid)
			pl.pageT[j] = newT
			d1 += f * float64(newT-oldT)
		}
		for idx, l := range pg.Optional {
			if !keep || !p.OptLocal(pid, idx) {
				if stored.Test(int(l.Object)) {
					pl.setIdle(pid, idx, true, true)
				}
				continue
			}
			link := pl.optOff[j] + idx
			d2 += f * l.Prob * float64(pl.optLocalT[link]-pl.optRemoteT[link])
			load += f * l.Prob
			repo -= f * l.Prob
			marks[l.Object]++
			pl.siteRefs[s].localOpt++
			pl.p.SetOptLocal(pid, idx, true)
		}
		pl.siteLocalLoad[s], pl.siteRepoLoad[s], pl.d1Site[s], pl.d2Site[s] = load, repo, d1, d2
	}
	return nil
}

// Explain produces the explanation for page j in the planner's current
// state. Objects are listed in the order partitionSplit visits them:
// decreasing size, equal sizes by their position on the page.
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
	pl.partitionSplit(j, pl.partitionOrder(), func(idx int, _ bool) {
		k := pg.Compulsory[idx]
		size := pl.env.W.ObjectSize(k)
		local := pl.p.CompLocal(j, idx)
		stored := pl.p.IsStored(pg.Site, k)
		feasible := true
		if !local && !stored && size > pl.freeSpace(pg.Site) {
			feasible = false
		}
		ex.Objects = append(ex.Objects, ObjectExplanation{
			Object:       k,
			Size:         size,
			Local:        local,
			Stored:       stored,
			FlipDelta:    pl.previewFlipComp(j, idx, !local),
			FlipFeasible: feasible,
		})
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
