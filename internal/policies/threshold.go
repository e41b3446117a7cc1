package policies

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// Threshold is a dynamic replication baseline in the style of the
// threshold-driven create/delete schemes the paper's Section 6 surveys
// (Rabinovich et al.'s replica management): each site counts accesses per
// object; an object is replicated locally once its access count since the
// last decay epoch exceeds ReplicateAt, and replicas are dropped when a
// site needs space for hotter objects (least-recently-counted first). The
// paper's critique — "the use of threshold values makes the performance of
// the scheme dependent upon their chosen values" — is exactly what the
// ThresholdStudy experiment sweeps.
//
// State is partitioned per site (httpsim's concurrency contract).
type Threshold struct {
	w           *workload.Workload
	replicateAt int64
	epoch       int64 // accesses between count halvings (decay)

	counts [][]int64 // per site, access count of each object
	since  []int64   // accesses since last decay, per site
	caches []*lru.Cache
}

// NewThreshold builds the baseline. budgets provides each site's storage
// capacity (shared with the other policies so comparisons are fair);
// replicateAt is the access-count threshold for creating a replica;
// decayEvery halves all counters after that many accesses at a site
// (keeping the counters adaptive, 0 disables decay).
func NewThreshold(w *workload.Workload, budgets model.Budgets, replicateAt int64, decayEvery int64) (*Threshold, error) {
	if len(budgets.Storage) != w.NumSites() {
		return nil, fmt.Errorf("policies: budgets for %d sites, workload has %d", len(budgets.Storage), w.NumSites())
	}
	if replicateAt < 1 {
		return nil, fmt.Errorf("policies: replicate threshold must be ≥1, got %d", replicateAt)
	}
	t := &Threshold{
		w:           w,
		replicateAt: replicateAt,
		epoch:       decayEvery,
		counts:      make([][]int64, w.NumSites()),
		since:       make([]int64, w.NumSites()),
		caches:      make([]*lru.Cache, w.NumSites()),
	}
	for i := range t.counts {
		t.counts[i] = make([]int64, w.NumObjects())
		moBudget := budgets.Storage[i] - w.HTMLStorageBytes(workload.SiteID(i))
		if moBudget < 0 {
			moBudget = 0
		}
		c, err := lru.New(int64(moBudget), w.NumObjects())
		if err != nil {
			return nil, err
		}
		t.caches[i] = c
	}
	return t, nil
}

// Name implements httpsim.Decider.
func (t *Threshold) Name() string {
	return fmt.Sprintf("Threshold(%d)", t.replicateAt)
}

// serve counts the access and serves locally iff a replica exists; crossing
// the threshold creates one (evicting colder replicas by recency).
func (t *Threshold) serve(i workload.SiteID, k workload.ObjectID) bool {
	t.decay(i)
	t.counts[i][k]++
	t.since[i]++
	c := t.caches[i]
	if c.Access(int(k)) {
		return true
	}
	if t.counts[i][k] >= t.replicateAt {
		c.Put(int(k), int64(t.w.ObjectSize(k)))
		// The replica is created by this access; the object itself was
		// still fetched remotely this time (replication happens in the
		// background in such schemes).
	}
	return false
}

// decay halves every counter once the site's access epoch elapses.
func (t *Threshold) decay(i workload.SiteID) {
	if t.epoch <= 0 || t.since[i] < t.epoch {
		return
	}
	t.since[i] = 0
	counts := t.counts[i]
	for k := range counts {
		counts[k] /= 2
	}
}

// Compulsory implements httpsim.Decider.
func (t *Threshold) Compulsory(j workload.PageID) (local, remote units.ByteSize, localReqs int64) {
	i := t.w.Pages[j].Site
	return serveCompulsory(t.w, j, func(_ int, k workload.ObjectID) bool { return t.serve(i, k) })
}

// OptLocal implements httpsim.Decider.
func (t *Threshold) OptLocal(j workload.PageID, idx int) bool {
	pg := &t.w.Pages[j]
	return t.serve(pg.Site, pg.Optional[idx].Object)
}

// Replicas returns how many objects site i currently replicates.
func (t *Threshold) Replicas(i workload.SiteID) int { return t.caches[i].Len() }
