// Package accesslog implements the statistics-collection side of the
// paper's Section 2 ("based on statistics collected, such as page access
// frequency, each local server decides ...") and Section 4.1's motivation
// for periodic re-execution: page-access counters are turned into
// frequency estimates, which yield a refreshed workload the planner can
// re-plan against.
package accesslog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
	"repro/internal/workload"
)

// Tap receives one callback per served page view, the hook the streaming
// estimator (internal/estimate) plugs into the live server path
// (webserve.ClusterOptions.AccessTap, cluster-uptime seconds).
// Implementations must be safe for concurrent use: the live path calls
// Observe from every serving goroutine.
type Tap interface {
	Observe(site workload.SiteID, page workload.PageID, t float64)
}

// Counts maps pages to observed request counts over some window.
type Counts map[workload.PageID]int64

// EstimateWorkload returns a copy of the workload whose page frequencies
// are re-estimated from observed access counts: within each site, a page's
// frequency is its Laplace-smoothed share of the site's observed requests,
// scaled to the site's aggregate peak rate. Smoothing (add-one) keeps
// never-observed pages plannable instead of pinning them to zero — small
// windows would otherwise starve the cold tail. Hot flags are recomputed
// as the top HotPageFrac pages per site (diagnostic only; the planner uses
// frequencies, not flags).
func EstimateWorkload(w *workload.Workload, counts Counts) (*workload.Workload, error) {
	for pid := range counts {
		if pid < 0 || int(pid) >= w.NumPages() {
			return nil, fmt.Errorf("accesslog: count for unknown page %d", pid)
		}
		if counts[pid] < 0 {
			return nil, fmt.Errorf("accesslog: negative count for page %d", pid)
		}
	}
	out := &workload.Workload{
		Config:  w.Config,
		Seed:    w.Seed,
		Objects: w.Objects,
		Pages:   append([]workload.Page(nil), w.Pages...),
		Sites:   w.Sites,
	}
	for i := range w.Sites {
		pages := w.Sites[i].Pages
		var total int64
		for _, pid := range pages {
			total += counts[pid]
		}
		// Laplace smoothing: every page gets +1 pseudo-count.
		denom := float64(total) + float64(len(pages))
		rate := float64(w.Config.PageRatePerSite)
		for _, pid := range pages {
			share := (float64(counts[pid]) + 1) / denom
			out.Pages[pid].Freq = units.ReqPerSec(rate * share)
		}
		markHot(out, workload.SiteID(i))
	}
	return out, nil
}

// markHot sets the Hot flag on the top HotPageFrac pages of the site by
// estimated frequency.
func markHot(w *workload.Workload, i workload.SiteID) {
	pages := append([]workload.PageID(nil), w.Sites[i].Pages...)
	sort.Slice(pages, func(a, b int) bool {
		fa, fb := w.Pages[pages[a]].Freq, w.Pages[pages[b]].Freq
		if fa != fb { //repllint:allow float-compare — exact-bits tie-break keeps the comparator a strict weak order
			return fa > fb
		}
		return pages[a] < pages[b]
	})
	hot := int(float64(len(pages))*w.Config.HotPageFrac + 0.5)
	if hot < 1 {
		hot = 1
	}
	for rank, pid := range pages {
		w.Pages[pid].Hot = rank < hot
	}
}

// EWMA is a streaming exponentially-decayed access counter: each page's
// weight decays with half-life h, so bursts ("breaking news") surface
// quickly and fade when the story ages. It tracks one site's pages; not
// safe for concurrent use (internal/estimate keeps one per site shard,
// behind the shard's lock).
type EWMA struct {
	halfLife float64 // seconds
	now      float64
	weights  map[workload.PageID]float64
	updated  map[workload.PageID]float64
}

// NewEWMA builds a decayed counter with the given half-life in seconds.
func NewEWMA(halfLifeSeconds float64) (*EWMA, error) {
	if halfLifeSeconds <= 0 {
		return nil, fmt.Errorf("accesslog: half-life must be positive, got %v", halfLifeSeconds)
	}
	return &EWMA{
		halfLife: halfLifeSeconds,
		weights:  make(map[workload.PageID]float64),
		updated:  make(map[workload.PageID]float64),
	}, nil
}

// Observe records one access to page pid at time t (seconds, monotone
// non-decreasing).
func (e *EWMA) Observe(pid workload.PageID, t float64) {
	if t > e.now {
		e.now = t
	}
	e.weights[pid] = e.decayed(pid) + 1
	e.updated[pid] = e.now
}

// decayed returns pid's weight decayed to e.now.
func (e *EWMA) decayed(pid workload.PageID) float64 {
	w, ok := e.weights[pid]
	if !ok {
		return 0
	}
	dt := e.now - e.updated[pid]
	if dt <= 0 {
		return w
	}
	return w * math.Exp2(-dt/e.halfLife)
}

// Weight returns pid's current decayed weight.
func (e *EWMA) Weight(pid workload.PageID) float64 { return e.decayed(pid) }

// Advance moves the clock forward without observations.
func (e *EWMA) Advance(t float64) {
	if t > e.now {
		e.now = t
	}
}
