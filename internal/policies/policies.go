// Package policies provides the placement policies compared in the paper's
// evaluation (Section 5.2): the proposed partition-based placement (as a
// static Decider over a planned model.Placement), the Remote and Local
// single-chain baselines, the ideal LRU caching/redirection scheme with
// zero redirection overhead, and two naive-split ablations used to probe
// PARTITION's design choices.
package policies

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// Static serves every request according to a fixed placement — the shape of
// the proposed policy and of the Remote/Local baselines. Each page's
// compulsory split is summed from the placement once, at construction, so
// the placement must be final by then. It is stateless per request and safe
// for concurrent use.
type Static struct {
	name  string
	p     *model.Placement
	pages []split // per page, the compulsory split of every view
}

// split is one view's compulsory bytes by the server they come from.
type split struct {
	local, remote units.ByteSize
	localReqs     int64
}

// NewStatic wraps a final placement as a Decider.
func NewStatic(name string, p *model.Placement) *Static {
	w := p.Workload()
	s := &Static{name: name, p: p, pages: make([]split, w.NumPages())}
	for j := range s.pages {
		pid := workload.PageID(j)
		sp := &s.pages[j]
		sp.local, sp.remote, sp.localReqs = serveCompulsory(w, pid, func(idx int, _ workload.ObjectID) bool {
			return p.CompLocal(pid, idx)
		})
	}
	return s
}

// NewRemote returns the paper's "download all from the repository" policy.
// (HTML always comes from the local server; only MOs are in question.)
func NewRemote(w *workload.Workload) *Static { return NewStatic("Remote", model.AllRemote(w)) }

// NewLocal returns the paper's "download all from the local servers"
// policy. Neither baseline is subject to the Eq. 8-10 constraints (§5.2).
func NewLocal(w *workload.Workload) *Static { return NewStatic("Local", model.AllLocal(w)) }

// Name implements httpsim.Decider.
func (s *Static) Name() string { return s.name }

// Compulsory implements httpsim.Decider.
func (s *Static) Compulsory(j workload.PageID) (local, remote units.ByteSize, localReqs int64) {
	sp := &s.pages[j]
	return sp.local, sp.remote, sp.localReqs
}

// OptLocal implements httpsim.Decider.
func (s *Static) OptLocal(j workload.PageID, idx int) bool { return s.p.OptLocal(j, idx) }

// Placement exposes the wrapped placement (for reporting).
func (s *Static) Placement() *model.Placement { return s.p }

// serveCompulsory serves page j's compulsory objects in order, each locally
// when serve(idx, k) says so, and sums their bytes by side.
func serveCompulsory(w *workload.Workload, j workload.PageID, serve func(idx int, k workload.ObjectID) bool) (local, remote units.ByteSize, localReqs int64) {
	for idx, k := range w.Pages[j].Compulsory {
		if serve(idx, k) {
			local += w.ObjectSize(k)
			localReqs++
		} else {
			remote += w.ObjectSize(k)
		}
	}
	return local, remote, localReqs
}

// allLocalLoad returns the Eq. 8 load site i would carry if every MO
// download (compulsory and expected optional) were served locally, plus the
// HTML floor — the demand an unconstrained cache would create.
func allLocalLoad(w *workload.Workload, i workload.SiteID) (total, htmlOnly float64) {
	for _, pid := range w.Sites[i].Pages {
		pg := &w.Pages[pid]
		f := float64(pg.Freq)
		htmlOnly += f
		perView := 1.0 + float64(len(pg.Compulsory))
		for _, l := range pg.Optional {
			perView += l.Prob
		}
		total += f * perView
	}
	return total, htmlOnly
}

// SizeThreshold returns a static ablation policy: compulsory objects of at
// least the threshold are served locally (big objects gain the most from
// the faster local link), smaller ones remotely; optional links follow the
// same rule. It ignores all constraints.
func SizeThreshold(w *workload.Workload, threshold int64) *Static {
	p := model.NewPlacement(w)
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			if int64(w.ObjectSize(k)) >= threshold {
				p.Store(pg.Site, k)
				p.SetCompLocal(workload.PageID(j), idx, true)
			}
		}
		for idx, l := range pg.Optional {
			if int64(w.ObjectSize(l.Object)) >= threshold {
				p.Store(pg.Site, l.Object)
				p.SetOptLocal(workload.PageID(j), idx, true)
			}
		}
	}
	return NewStatic(fmt.Sprintf("SizeThreshold(%d)", threshold), p)
}

// HalfSplit returns a static ablation policy that serves every page's
// larger-half compulsory objects locally and the rest remotely — the
// "split by count, not by time balance" strawman.
func HalfSplit(w *workload.Workload) *Static {
	p := model.NewPlacement(w)
	for j := range w.Pages {
		pg := &w.Pages[j]
		// Indices sorted by decreasing size; first half local.
		order := make([]int, len(pg.Compulsory))
		for i := range order {
			order[i] = i
		}
		for a := 0; a < len(order); a++ {
			for b := a + 1; b < len(order); b++ {
				if w.ObjectSize(pg.Compulsory[order[b]]) > w.ObjectSize(pg.Compulsory[order[a]]) {
					order[a], order[b] = order[b], order[a]
				}
			}
		}
		for rank, idx := range order {
			if rank < (len(order)+1)/2 {
				p.Store(pg.Site, pg.Compulsory[idx])
				p.SetCompLocal(workload.PageID(j), idx, true)
			}
		}
		for idx, l := range pg.Optional {
			p.Store(pg.Site, l.Object)
			p.SetOptLocal(workload.PageID(j), idx, true)
		}
	}
	return NewStatic("HalfSplit", p)
}
