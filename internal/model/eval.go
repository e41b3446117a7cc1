package model

import (
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// PageLocalTime evaluates Eq. 3 under the planner's estimates: the time to
// fetch page j's HTML plus its locally-assigned compulsory objects over one
// persistent pipelined connection to the local server.
func PageLocalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	t := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	for idx, k := range pg.Compulsory {
		if p.CompLocal(j, idx) {
			t += est.LocalRate.TransferTime(e.W.ObjectSize(k))
		}
	}
	return t
}

// PageRemoteTime evaluates Eq. 4: the time for the repository to deliver the
// compulsory objects not assigned locally. A page whose every compulsory
// object is local still pays no repository overhead: the browser opens the
// second connection only when there is something to fetch.
func PageRemoteTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	var bytes units.ByteSize
	any := false
	for idx, k := range pg.Compulsory {
		if !p.CompLocal(j, idx) {
			bytes += e.W.ObjectSize(k)
			any = true
		}
	}
	if !any {
		return 0
	}
	return est.RepoOvhd + est.RepoRate.TransferTime(bytes)
}

// PageTime evaluates Eq. 5: the max of the two parallel chains.
func PageTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return units.MaxSeconds(PageLocalTime(e, p, j), PageRemoteTime(e, p, j))
}

// PredictSpans records the placement's Eq. 5 prediction as one
// trace.SpanPredict span per page: Dur is PageTime, attr chain the side
// that takes the max (ties go to remote, as in the simulator). The spans
// sit under trace 0 with ID page+1 and draw no randomness, so appending
// them to a traced run's forest shifts none of its streams; trace.Analyze
// reads them back as each page's predicted time.
func PredictSpans(e *Env, p *Placement) []trace.Span {
	out := make([]trace.Span, e.W.NumPages())
	for j := range out {
		id := workload.PageID(j)
		d, chain := PageLocalTime(e, p, id), "local"
		if r := PageRemoteTime(e, p, id); r >= d {
			d, chain = r, "remote"
		}
		out[j] = trace.Span{
			ID: trace.SpanID(j + 1), Name: trace.SpanPredict, Kind: trace.KindPlan, Dur: float64(d),
			Attrs: []trace.Attr{trace.I(trace.AttrPage, int64(j)), trace.A(trace.AttrChain, chain)},
		}
	}
	return out
}

// PageOptionalTime evaluates the Eq. 6 inner sum: the expected optional
// download seconds caused by one view of page j. Each optional request pays
// a fresh connection overhead on whichever side serves it.
func PageOptionalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	var t units.Seconds
	for idx, l := range pg.Optional {
		var one units.Seconds
		if p.OptLocal(j, idx) {
			one = est.LocalOvhd + est.LocalRate.TransferTime(e.W.ObjectSize(l.Object))
		} else {
			one = est.RepoOvhd + est.RepoRate.TransferTime(e.W.ObjectSize(l.Object))
		}
		t += units.Seconds(l.Prob) * one
	}
	return t
}

// D1 evaluates the first target of Eq. 7: Σ_j f(W_j)·Time(W_j).
func D1(e *Env, p *Placement) float64 {
	sum := 0.0
	for j := range e.W.Pages {
		sum += float64(e.W.Pages[j].Freq) * float64(PageTime(e, p, workload.PageID(j)))
	}
	return sum
}

// D2 evaluates the second target: Σ_j f(W_j)·Time(W_j, M), with Eq. 6's
// per-view expected optional time (DESIGN.md §3.9 notes the dimensional
// reading of the paper's f(W_j, M) factor).
func D2(e *Env, p *Placement) float64 {
	sum := 0.0
	for j := range e.W.Pages {
		sum += float64(e.W.Pages[j].Freq) * float64(PageOptionalTime(e, p, workload.PageID(j)))
	}
	return sum
}

// D evaluates the composite weighted objective α1·D1 + α2·D2.
func D(e *Env, p *Placement) float64 {
	return e.Alpha1*D1(e, p) + e.Alpha2*D2(e, p)
}

// PageLocalLoad returns page j's contribution to Eq. 8's left-hand side:
// f(W_j)·(1 + Σ_k X_jk + Σ_k U'_jk·X'_jk) — the HTML request, the local
// compulsory downloads, and the expected local optional downloads.
func PageLocalLoad(e *Env, p *Placement, j workload.PageID) units.ReqPerSec {
	pg := &e.W.Pages[j]
	perView := 1.0
	for idx := range pg.Compulsory {
		if p.CompLocal(j, idx) {
			perView++
		}
	}
	for idx, l := range pg.Optional {
		if p.OptLocal(j, idx) {
			perView += l.Prob
		}
	}
	return units.ReqPerSec(float64(pg.Freq) * perView)
}

// SiteLoad returns the Eq. 8 left-hand side for site i.
func SiteLoad(e *Env, p *Placement, i workload.SiteID) units.ReqPerSec {
	var sum units.ReqPerSec
	for _, pid := range e.W.Sites[i].Pages {
		sum += PageLocalLoad(e, p, pid)
	}
	return sum
}

// PageRepoLoad returns page j's contribution to Eq. 9's left-hand side:
// f(W_j)·(Σ_k U_jk(1−X_jk) + Σ_k U'_jk(1−X'_jk)).
func PageRepoLoad(e *Env, p *Placement, j workload.PageID) units.ReqPerSec {
	pg := &e.W.Pages[j]
	perView := 0.0
	for idx := range pg.Compulsory {
		if !p.CompLocal(j, idx) {
			perView++
		}
	}
	for idx, l := range pg.Optional {
		if !p.OptLocal(j, idx) {
			perView += l.Prob
		}
	}
	return units.ReqPerSec(float64(pg.Freq) * perView)
}

// SiteRepoLoad returns P(S_i, R): the repository workload imposed by site
// i's pages under the placement.
func SiteRepoLoad(e *Env, p *Placement, i workload.SiteID) units.ReqPerSec {
	var sum units.ReqPerSec
	for _, pid := range e.W.Sites[i].Pages {
		sum += PageRepoLoad(e, p, pid)
	}
	return sum
}

// RepoLoad returns the Eq. 9 left-hand side: Σ_i P(S_i, R).
func RepoLoad(e *Env, p *Placement) units.ReqPerSec {
	var sum units.ReqPerSec
	for i := range e.W.Sites {
		sum += SiteRepoLoad(e, p, workload.SiteID(i))
	}
	return sum
}

// SiteReport is the per-site line of a constraint report.
type SiteReport struct {
	Site         workload.SiteID
	StorageUsed  units.ByteSize
	StorageLimit units.ByteSize
	Load         units.ReqPerSec
	Capacity     units.ReqPerSec
}

// StorageOK reports Eq. 10 for this site.
func (r SiteReport) StorageOK() bool { return r.StorageUsed <= r.StorageLimit }

// LoadOK reports Eq. 8 for this site (with a small epsilon: the restoration
// loops stop exactly at the boundary and float accumulation order differs
// between the incremental planner and this pure recomputation).
func (r SiteReport) LoadOK() bool { return float64(r.Load) <= float64(r.Capacity)*(1+1e-9)+1e-9 }

// Report summarizes a placement against an environment: the objective
// values and every constraint of Eqs. 8-10.
type Report struct {
	D1, D2, D float64
	Sites     []SiteReport
	RepoLoad  units.ReqPerSec
	RepoCap   units.ReqPerSec
}

// Evaluate produces a full report.
func Evaluate(e *Env, p *Placement) *Report {
	r := &Report{
		D1:       D1(e, p),
		D2:       D2(e, p),
		RepoLoad: RepoLoad(e, p),
		RepoCap:  e.Budgets.RepoCapacity,
	}
	r.D = e.Alpha1*r.D1 + e.Alpha2*r.D2
	for i := range e.W.Sites {
		id := workload.SiteID(i)
		r.Sites = append(r.Sites, SiteReport{
			Site:         id,
			StorageUsed:  p.StorageUsed(id),
			StorageLimit: e.Budgets.Storage[i],
			Load:         SiteLoad(e, p, id),
			Capacity:     e.Budgets.SiteCapacity[i],
		})
	}
	return r
}

// RepoOK reports Eq. 9 (with the same epsilon rationale as LoadOK).
func (r *Report) RepoOK() bool {
	if math.IsInf(float64(r.RepoCap), 1) {
		return true
	}
	return float64(r.RepoLoad) <= float64(r.RepoCap)*(1+1e-9)+1e-9
}

// Feasible reports whether every constraint holds.
func (r *Report) Feasible() bool {
	if !r.RepoOK() {
		return false
	}
	for _, s := range r.Sites {
		if !s.StorageOK() || !s.LoadOK() {
			return false
		}
	}
	return true
}

// Violations lists human-readable descriptions of every violated constraint.
func (r *Report) Violations() []string {
	var out []string
	for _, s := range r.Sites {
		if !s.StorageOK() {
			out = append(out, fmt.Sprintf("site %d storage %v over limit %v", s.Site, s.StorageUsed, s.StorageLimit))
		}
		if !s.LoadOK() {
			out = append(out, fmt.Sprintf("site %d load %v over capacity %v", s.Site, s.Load, s.Capacity))
		}
	}
	if !r.RepoOK() {
		out = append(out, fmt.Sprintf("repository load %v over capacity %v", r.RepoLoad, r.RepoCap))
	}
	return out
}

// Write renders the report.
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "objective: D=%.2f (D1=%.2f, D2=%.2f)\n", r.D, r.D1, r.D2); err != nil {
		return err
	}
	for _, s := range r.Sites {
		mark := "ok"
		if !s.StorageOK() || !s.LoadOK() {
			mark = "VIOLATED"
		}
		if _, err := fmt.Fprintf(w, "site %2d: storage %v/%v  load %v/%v  [%s]\n",
			s.Site, s.StorageUsed, s.StorageLimit, s.Load, s.Capacity, mark); err != nil {
			return err
		}
	}
	repoCap := "∞"
	if !math.IsInf(float64(r.RepoCap), 1) {
		repoCap = r.RepoCap.String()
	}
	_, err := fmt.Fprintf(w, "repository: load %v/%s\n", r.RepoLoad, repoCap)
	return err
}
