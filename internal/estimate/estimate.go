// Package estimate is the streaming half of the paper's Section 4.1
// re-planning story: a continuously-updated frequency estimate of what the
// sites are actually serving, and a drift detector that says when the
// estimate has diverged far enough from the plan's assumptions to justify
// re-running the planner.
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
	"sync"

	"repro/internal/accesslog"
	"repro/internal/workload"
)

// Config tunes the estimator.
type Config struct {
	// HalfLife is the EWMA decay half-life in seconds (default 60): an
	// access's weight halves every HalfLife seconds of estimator time.
	HalfLife float64
}

func (c Config) normalize() Config {
	if c.HalfLife <= 0 {
		c.HalfLife = 60
	}
	return c
}

// shard is one site's slice of the estimator. The EWMA is not
// concurrency-safe; mu serializes access to it.
type shard struct {
	mu     sync.Mutex
	pages  []workload.PageID // hosted pages, ascending ID order
	counts *accesslog.EWMA
}

// Estimator is the streaming frequency estimator: one decayed counter set
// per site, fed by Observe and read by Snapshot. Safe for concurrent use.
type Estimator struct {
	cfg      Config
	numPages int
	sites    []*shard
}

// New builds an estimator for the workload's site/page universe. The
// workload fixes only the shape (which pages each site hosts); frequencies
// are learned entirely from observations.
func New(w *workload.Workload, cfg Config) (*Estimator, error) {
	cfg = cfg.normalize()
	e := &Estimator{cfg: cfg, numPages: w.NumPages(), sites: make([]*shard, w.NumSites())}
	for i := range w.Sites {
		ew, err := accesslog.NewEWMA(cfg.HalfLife)
		if err != nil {
			return nil, err
		}
		e.sites[i] = &shard{pages: append([]workload.PageID(nil), w.Sites[i].Pages...), counts: ew}
	}
	return e, nil
}

// Observe records one access to page pid at site i at time t (seconds on
// the caller's clock: the cluster's uptime on the live path, the virtual
// clock in the simulator). Timestamps must be non-decreasing per site;
// out-of-range sites or pages are ignored (a malformed request must not
// poison the estimate). Safe for concurrent use.
func (e *Estimator) Observe(site workload.SiteID, pid workload.PageID, t float64) {
	if int(site) >= len(e.sites) || site < 0 || pid < 0 || int(pid) >= e.numPages {
		return
	}
	sh := e.sites[site]
	sh.mu.Lock()
	sh.counts.Observe(pid, t)
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
		sh.counts.Advance(t)
		for idx, pid := range sh.pages {
			se.Pages[idx] = PageWeight{Page: pid, Weight: sh.counts.Weight(pid)}
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

// Counts rounds the snapshot into accesslog.Counts (weights scaled by 1000
// to keep precision through the integer interface), the input
// accesslog.EstimateWorkload consumes. Pages below the retention floor are
// dropped, exactly like accesslog.EWMA.Snapshot.
func (s *Snapshot) Counts() accesslog.Counts {
	out := make(accesslog.Counts)
	for _, se := range s.Sites {
		for _, pw := range se.Pages {
			if pw.Weight > 1e-9 {
				out[pw.Page] = int64(pw.Weight * 1000)
			}
		}
	}
	return out
}

// EstimateWorkload re-estimates w's page frequencies from the snapshot:
// each page's frequency becomes its Laplace-smoothed share of its site's
// observed weight, scaled to the site's aggregate rate (via
// accesslog.EstimateWorkload). The returned workload is what the adaptive
// loop re-plans against.
func (s *Snapshot) EstimateWorkload(w *workload.Workload) (*workload.Workload, error) {
	return accesslog.EstimateWorkload(w, s.Counts())
}

// FreqVector renders the snapshot as a global page-share vector: within
// each site weights are normalized to sum 1 (a site with nothing observed
// contributes zeros), then divided by the site count so the whole vector
// sums to ≈1. The same normalization BaselineVector applies to a planned
// workload, making the two directly comparable inputs for the Detector.
func (s *Snapshot) FreqVector(numPages int) []float64 {
	out := make([]float64, numPages)
	if len(s.Sites) == 0 {
		return out
	}
	inv := 1 / float64(len(s.Sites))
	for _, se := range s.Sites {
		var total float64
		for _, pw := range se.Pages {
			total += pw.Weight
		}
		if total <= 0 {
			continue
		}
		for _, pw := range se.Pages {
			if int(pw.Page) < numPages {
				out[pw.Page] = pw.Weight / total * inv
			}
		}
	}
	return out
}

// BaselineVector renders a workload's planned frequencies with the same
// normalization as Snapshot.FreqVector — the vector the current plan was
// built from, and the Detector's reference point.
func BaselineVector(w *workload.Workload) []float64 {
	out := make([]float64, w.NumPages())
	if w.NumSites() == 0 {
		return out
	}
	inv := 1 / float64(w.NumSites())
	for i := range w.Sites {
		var total float64
		for _, pid := range w.Sites[i].Pages {
			total += float64(w.Pages[pid].Freq)
		}
		if total <= 0 {
			continue
		}
		for _, pid := range w.Sites[i].Pages {
			out[pid] = float64(w.Pages[pid].Freq) / total * inv
		}
	}
	return out
}
