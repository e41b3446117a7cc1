package model

import (
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// pageCost is page j's share of the cost model under a placement, as one
// walk of its X and X' rows computes it.
type pageCost struct {
	local, remote units.Seconds // Eq. 3 and Eq. 4 chains
	optional      units.Seconds // Eq. 6 inner sum
	// Requests per view: Eq. 8's 1 + Σ X + Σ U'·X' and Eq. 9's
	// Σ (1−X) + Σ U'·(1−X').
	localPerView, repoPerView float64
}

// pageCosts is the one implementation of the per-page arithmetic of
// Eqs. 3-6 and 8-9. The local chain fetches the HTML and the
// locally-assigned compulsory objects over one persistent pipelined
// connection to the local server; the remote chain the rest from the
// repository, and a page whose every compulsory object is local pays no
// repository overhead (the browser opens the second connection only when
// there is something to fetch); each optional request pays a fresh
// connection overhead on whichever side serves it.
func pageCosts(e *Env, p *Placement, j int) pageCost {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	c := pageCost{local: est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize), localPerView: 1}
	var remoteBytes units.ByteSize
	for idx, local := range p.compRow(j) {
		size := e.W.ObjectSize(pg.Compulsory[idx])
		if local {
			c.local += est.LocalRate.TransferTime(size)
			c.localPerView++
		} else {
			remoteBytes += size
			c.repoPerView++
		}
	}
	if c.repoPerView > 0 {
		c.remote = est.RepoOvhd + est.RepoRate.TransferTime(remoteBytes)
	}
	for idx, local := range p.optRow(j) {
		l := pg.Optional[idx]
		size := e.W.ObjectSize(l.Object)
		var one units.Seconds
		if local {
			one = est.LocalOvhd + est.LocalRate.TransferTime(size)
			c.localPerView += l.Prob
		} else {
			one = est.RepoOvhd + est.RepoRate.TransferTime(size)
			c.repoPerView += l.Prob
		}
		c.optional += units.Seconds(l.Prob) * one
	}
	return c
}

// pageTime is Eq. 5: the max of the two parallel chains.
func (c pageCost) pageTime() units.Seconds { return units.MaxSeconds(c.local, c.remote) }

// PageLocalTime evaluates Eq. 3 under the planner's estimates: the time to
// fetch page j's HTML plus its locally-assigned compulsory objects.
func PageLocalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return pageCosts(e, p, int(j)).local
}

// PageRemoteTime evaluates Eq. 4: the time for the repository to deliver the
// compulsory objects not assigned locally (0 when there are none).
func PageRemoteTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return pageCosts(e, p, int(j)).remote
}

// PageTime evaluates Eq. 5: the max of the two parallel chains.
func PageTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return pageCosts(e, p, int(j)).pageTime()
}

// PageTimes returns PageTime and PageOptionalTime from one walk of the page.
func PageTimes(e *Env, p *Placement, j workload.PageID) (page, optional units.Seconds) {
	c := pageCosts(e, p, int(j))
	return c.pageTime(), c.optional
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
		c := pageCosts(e, p, j)
		d, chain := c.local, "local"
		if c.remote >= d {
			d, chain = c.remote, "remote"
		}
		out[j] = trace.Span{
			ID: trace.SpanID(j + 1), Name: trace.SpanPredict, Kind: trace.KindPlan, Dur: float64(d),
			Attrs: []trace.Attr{trace.I(trace.AttrPage, int64(j)), trace.A(trace.AttrChain, chain)},
		}
	}
	return out
}

// PageOptionalTime evaluates the Eq. 6 inner sum: the expected optional
// download seconds caused by one view of page j.
func PageOptionalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return pageCosts(e, p, int(j)).optional
}

// objective returns D1 and D2 from one pass over the pages.
func objective(e *Env, p *Placement) (d1, d2 float64) {
	for j := range e.W.Pages {
		c := pageCosts(e, p, j)
		f := float64(e.W.Pages[j].Freq)
		d1 += f * float64(c.pageTime())
		d2 += f * float64(c.optional)
	}
	return d1, d2
}

// D1 evaluates the first target of Eq. 7: Σ_j f(W_j)·Time(W_j).
func D1(e *Env, p *Placement) float64 {
	d1, _ := objective(e, p)
	return d1
}

// D2 evaluates the second target: Σ_j f(W_j)·Time(W_j, M), with Eq. 6's
// per-view expected optional time (DESIGN.md §3.9 notes the dimensional
// reading of the paper's f(W_j, M) factor).
func D2(e *Env, p *Placement) float64 {
	_, d2 := objective(e, p)
	return d2
}

// D evaluates the composite weighted objective α1·D1 + α2·D2.
func D(e *Env, p *Placement) float64 {
	d1, d2 := objective(e, p)
	return e.Alpha1*d1 + e.Alpha2*d2
}

// PageLocalLoad returns page j's contribution to Eq. 8's left-hand side:
// f(W_j)·(1 + Σ_k X_jk + Σ_k U'_jk·X'_jk) — the HTML request, the local
// compulsory downloads, and the expected local optional downloads.
func PageLocalLoad(e *Env, p *Placement, j workload.PageID) units.ReqPerSec {
	return units.ReqPerSec(float64(e.W.Pages[j].Freq) * pageCosts(e, p, int(j)).localPerView)
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
	return units.ReqPerSec(float64(e.W.Pages[j].Freq) * pageCosts(e, p, int(j)).repoPerView)
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

// Evaluate produces a full report from one pass over the pages. The loads
// are summed per site in Sites[i].Pages order and the repository's over the
// sites, as SiteLoad and RepoLoad sum them.
func Evaluate(e *Env, p *Placement) *Report {
	r := &Report{RepoCap: e.Budgets.RepoCapacity, Sites: make([]SiteReport, len(e.W.Sites))}
	loads := make([][2]units.ReqPerSec, len(e.W.Pages)) // Eq. 8 and Eq. 9 terms
	for j := range e.W.Pages {
		c := pageCosts(e, p, j)
		f := float64(e.W.Pages[j].Freq)
		r.D1 += f * float64(c.pageTime())
		r.D2 += f * float64(c.optional)
		loads[j] = [2]units.ReqPerSec{units.ReqPerSec(f * c.localPerView), units.ReqPerSec(f * c.repoPerView)}
	}
	r.D = e.Alpha1*r.D1 + e.Alpha2*r.D2
	for i := range e.W.Sites {
		id := workload.SiteID(i)
		var load, repo units.ReqPerSec
		for _, pid := range e.W.Sites[i].Pages {
			load += loads[pid][0]
			repo += loads[pid][1]
		}
		r.RepoLoad += repo
		r.Sites[i] = SiteReport{
			Site:         id,
			StorageUsed:  p.StorageUsed(id),
			StorageLimit: e.Budgets.Storage[i],
			Load:         load,
			Capacity:     e.Budgets.SiteCapacity[i],
		}
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
