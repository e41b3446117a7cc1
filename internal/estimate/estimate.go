// Package estimate is the paper's adaptation pipeline: the statistics
// collection of Section 2 ("based on statistics collected, such as page
// access frequency, each local server decides ...") and Section 4.1's
// periodic re-execution of the planner when those statistics go stale. It
// keeps a continuously-updated frequency estimate of what the sites are
// actually serving, turns it into a refreshed workload, and decides — with
// a drift detector — when the estimate has diverged far enough from the
// plan's assumptions to justify re-running the planner (Detector.Replan).
//
// The paper computes the X/X′ placement once from *estimated* access
// frequencies and concedes that "breaking news" drift makes the plan go
// stale; the §5.1 sensitivity study measures the damage but never closes
// the loop. This package supplies the missing sensor: per-(site, page)
// exponentially-decayed counters (EWMA with a configurable half-life, so
// bursts surface quickly and fade when the story ages) fed by the live
// servers' access-log tap, or directly through Observe — the flash-crowd
// study feeds it requests sampled from each epoch's workload. Snapshots are
// rendered in sorted page order and are a pure function of the observation
// stream, so equal request streams yield byte-identical snapshots — the
// property the determinism tests pin and the flash-crowd experiment's
// reproducibility rests on.
//
// Concurrency: the estimator shards state per site, each shard behind its
// own mutex. Distinct sites never contend, matching the live cluster (one
// server per site); concurrent requests into the same site serialize on
// the shard lock.
package estimate

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/units"
	"repro/internal/workload"
)

// Config tunes the estimator.
type Config struct {
	// HalfLife is the EWMA decay half-life in seconds (default 60): an
	// access's weight halves every HalfLife seconds of estimator time.
	HalfLife float64
}

// shard is one site's decayed counters, dense over the pages the site
// hosted when the estimator was built; mu serializes access to them.
type shard struct {
	mu      sync.Mutex
	pages   []workload.PageID // hosted pages, ascending ID order
	now     float64           // the latest timestamp observed or advanced to
	weights []float64         // per hosted page: decayed weight as of updated
	updated []float64         // per hosted page: now at its last observation
}

// decayed returns the weight of the k-th hosted page decayed to sh.now.
func (sh *shard) decayed(k int, halfLife float64) float64 {
	dt := sh.now - sh.updated[k]
	if dt <= 0 {
		return sh.weights[k]
	}
	return sh.weights[k] * math.Exp2(-dt/halfLife)
}

// Estimator is the streaming frequency estimator: one decayed counter set
// per site, fed by Observe and read by Snapshot. Safe for concurrent use.
type Estimator struct {
	halfLife float64
	slot     []int // per page: its position in its host site's shard
	sites    []*shard
}

// New builds an estimator for the workload's site/page universe. The
// workload fixes only the shape (which pages each site hosts); frequencies
// are learned entirely from observations. A non-positive half-life takes
// the default, so the error is always nil.
func New(w *workload.Workload, cfg Config) (*Estimator, error) {
	e := &Estimator{halfLife: cfg.HalfLife, slot: make([]int, w.NumPages()), sites: make([]*shard, w.NumSites())}
	if e.halfLife <= 0 {
		e.halfLife = 60
	}
	for i := range w.Sites {
		pages := append([]workload.PageID(nil), w.Sites[i].Pages...)
		for k, pid := range pages {
			e.slot[pid] = k
		}
		e.sites[i] = &shard{pages: pages, weights: make([]float64, len(pages)), updated: make([]float64, len(pages))}
	}
	return e, nil
}

// Observe records one access to page pid at site i at time t (seconds on
// the caller's clock: the cluster's uptime on the live path, the virtual
// clock in the simulator): the page's weight decays to the site's clock
// and gains one. Timestamps should be non-decreasing per site; an earlier
// one counts at the site's current time. Out-of-range sites or pages are
// ignored (a malformed request must not poison the estimate), and a page
// the site did not host at construction — one a repair re-homed there —
// only advances the site's clock. Safe for concurrent use.
func (e *Estimator) Observe(site workload.SiteID, pid workload.PageID, t float64) {
	if int(site) >= len(e.sites) || site < 0 || pid < 0 || int(pid) >= len(e.slot) {
		return
	}
	sh, k := e.sites[site], e.slot[pid]
	sh.mu.Lock()
	if t > sh.now {
		sh.now = t
	}
	if k < len(sh.pages) && sh.pages[k] == pid {
		sh.weights[k] = sh.decayed(k, e.halfLife) + 1
		sh.updated[k] = sh.now
	}
	sh.mu.Unlock()
}

// PageWeight is one page's decayed access weight in a snapshot.
type PageWeight struct {
	Page   workload.PageID `json:"page"`
	Weight float64         `json:"weight"`
}

// SiteEstimate is one site's snapshot slice: every hosted page in
// ascending ID order, including never-observed pages at weight 0, so the
// output shape is fixed by the workload and two equal states encode to
// identical bytes.
type SiteEstimate struct {
	Site  workload.SiteID `json:"site"`
	Pages []PageWeight    `json:"pages"`
}

// Snapshot is a point-in-time copy of the estimate.
type Snapshot struct {
	At    float64        `json:"at"`
	Sites []SiteEstimate `json:"sites"`
}

// Snapshot advances every site's decay clock to t and copies the decayed
// weights out, sites ascending, pages in ID order within each site.
func (e *Estimator) Snapshot(t float64) *Snapshot {
	out := &Snapshot{At: t, Sites: make([]SiteEstimate, len(e.sites))}
	for i, sh := range e.sites {
		se := SiteEstimate{Site: workload.SiteID(i), Pages: make([]PageWeight, len(sh.pages))}
		sh.mu.Lock()
		if t > sh.now {
			sh.now = t
		}
		for k, pid := range sh.pages {
			se.Pages[k] = PageWeight{Page: pid, Weight: sh.decayed(k, e.halfLife)}
		}
		sh.mu.Unlock()
		out.Sites[i] = se
	}
	return out
}

// Encode renders the snapshot as indented JSON. Two equal snapshots encode
// to identical bytes — the determinism property the CI adapt stage pins.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// EstimateWorkload re-estimates w's page frequencies from the snapshot:
// each weight, scaled by 1000 and truncated, is the page's access count
// for the package-level EstimateWorkload. The returned workload is what
// the adaptive loop re-plans against.
func (s *Snapshot) EstimateWorkload(w *workload.Workload) (*workload.Workload, error) {
	counts := make(Counts)
	for _, se := range s.Sites {
		for _, pw := range se.Pages {
			if pw.Weight > 1e-9 {
				counts[pw.Page] = int64(pw.Weight * 1000)
			}
		}
	}
	return EstimateWorkload(w, counts)
}

// Counts maps pages to observed request counts over some window.
type Counts map[workload.PageID]int64

// EstimateWorkload returns a derived copy of the workload (Workload.Derive,
// so a re-plan shares its PARTITION order) whose page frequencies are
// re-estimated from observed access counts: within each site, a page's
// frequency is its Laplace-smoothed share of the site's observed requests,
// scaled to the site's aggregate peak rate. Smoothing (add-one) keeps
// never-observed pages plannable instead of pinning them to zero — small
// windows would otherwise starve the cold tail. Hot flags are recomputed
// as the top HotPageFrac pages per site (diagnostic only; the planner uses
// frequencies, not flags).
func EstimateWorkload(w *workload.Workload, counts Counts) (*workload.Workload, error) {
	for pid := range counts {
		if pid < 0 || int(pid) >= w.NumPages() {
			return nil, fmt.Errorf("estimate: count for unknown page %d", pid)
		}
		if counts[pid] < 0 {
			return nil, fmt.Errorf("estimate: negative count for page %d", pid)
		}
	}
	out := w.Derive()
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

// FreqVector renders the snapshot as a global page-share vector: within
// each site weights are normalized to sum 1 (a site with nothing observed
// contributes zeros), then divided by the site count so the whole vector
// sums to ≈1. The same normalization BaselineVector applies to a planned
// workload, making the two directly comparable inputs for the Detector.
func (s *Snapshot) FreqVector(numPages int) []float64 {
	out := make([]float64, numPages)
	for _, se := range s.Sites {
		siteShares(out, len(s.Sites), len(se.Pages), func(k int) (workload.PageID, float64) {
			return se.Pages[k].Page, se.Pages[k].Weight
		})
	}
	return out
}

// BaselineVector renders a workload's planned frequencies with the same
// normalization as Snapshot.FreqVector — the vector the current plan was
// built from, and the Detector's reference point.
func BaselineVector(w *workload.Workload) []float64 {
	out := make([]float64, w.NumPages())
	for i := range w.Sites {
		pages := w.Sites[i].Pages
		siteShares(out, w.NumSites(), len(pages), func(k int) (workload.PageID, float64) {
			return pages[k], float64(w.Pages[pages[k]].Freq)
		})
	}
	return out
}

// siteShares writes one site's slice of a share vector into out: each of
// its n pages' weight over the site's total, divided by the site count. A
// site without weight writes nothing, and pages beyond out are skipped.
func siteShares(out []float64, sites, n int, page func(k int) (workload.PageID, float64)) {
	var total float64
	for k := 0; k < n; k++ {
		_, x := page(k)
		total += x
	}
	if total <= 0 {
		return
	}
	inv := 1 / float64(sites)
	for k := 0; k < n; k++ {
		if pid, x := page(k); int(pid) < len(out) {
			out[pid] = x / total * inv
		}
	}
}
