package policies

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// LRU is the paper's ideal LRU caching/redirection baseline: each site
// holds a byte-capacity LRU cache of multimedia objects; a cached object is
// served locally with zero redirection overhead, a miss is served by the
// repository and inserted into the cache (evicting by recency). The policy
// is subject only to the Eq. 8 processing constraint (§5.2): when serving
// every cached object locally would exceed the site's capacity, cache hits
// are served locally only with the admission probability that keeps the
// expected load at the capacity.
//
// State is partitioned per site, matching httpsim's concurrency contract
// (distinct sites may be simulated concurrently, one page view at a time
// within a site).
type LRU struct {
	w      *workload.Workload
	caches []*lru.Cache
	admit  []float64     // per-site local-serve probability for cache hits
	gates  []*rng.Stream // per-site admission randomness
}

// NewLRU builds the baseline for the given storage budgets (total bytes per
// site including HTML — the same Budgets the planner receives, so both
// policies compete for identical storage) and site capacities.
func NewLRU(w *workload.Workload, budgets model.Budgets, seed uint64) (*LRU, error) {
	if len(budgets.Storage) != w.NumSites() {
		return nil, fmt.Errorf("policies: budgets for %d sites, workload has %d", len(budgets.Storage), w.NumSites())
	}
	root := rng.New(seed)
	l := &LRU{
		w:      w,
		caches: make([]*lru.Cache, w.NumSites()),
		admit:  make([]float64, w.NumSites()),
		gates:  make([]*rng.Stream, w.NumSites()),
	}
	for i := range l.caches {
		id := workload.SiteID(i)
		moBudget := budgets.Storage[i] - w.HTMLStorageBytes(id)
		if moBudget < 0 {
			moBudget = 0
		}
		c, err := lru.New(int64(moBudget), w.NumObjects())
		if err != nil {
			return nil, err
		}
		l.caches[i] = c

		// Eq. 8 admission: scale local serving so the expected load fits.
		total, htmlOnly := allLocalLoad(w, id)
		capacity := float64(budgets.SiteCapacity[i])
		switch {
		case total <= capacity || total <= htmlOnly:
			l.admit[i] = 1
		case capacity <= htmlOnly:
			l.admit[i] = 0
		default:
			l.admit[i] = (capacity - htmlOnly) / (total - htmlOnly)
		}
		l.gates[i] = root.Split(uint64(i))
	}
	return l, nil
}

// Name implements httpsim.Decider.
func (l *LRU) Name() string { return "LRU" }

// serve looks object k up in site i's cache: a hit (subject to admission)
// serves locally and refreshes recency; a miss serves remotely and inserts.
func (l *LRU) serve(i workload.SiteID, k workload.ObjectID) bool {
	c := l.caches[i]
	if c.Access(int(k)) {
		if l.admit[i] >= 1 || l.gates[i].Bool(l.admit[i]) {
			return true
		}
		return false // cached, but capacity-throttled to the repository
	}
	c.Put(int(k), int64(l.w.ObjectSize(k)))
	return false
}

// Compulsory implements httpsim.Decider.
func (l *LRU) Compulsory(j workload.PageID) (local, remote units.ByteSize, localReqs int64) {
	i := l.w.Pages[j].Site
	return serveCompulsory(l.w, j, func(_ int, k workload.ObjectID) bool { return l.serve(i, k) })
}

// OptLocal implements httpsim.Decider.
func (l *LRU) OptLocal(j workload.PageID, idx int) bool {
	pg := &l.w.Pages[j]
	return l.serve(pg.Site, pg.Optional[idx].Object)
}

// CacheStats reports per-site hit/miss/eviction counters (diagnostics).
func (l *LRU) CacheStats(i workload.SiteID) (hits, misses, evictions int64, bytes units.ByteSize) {
	c := l.caches[i]
	return c.Hits(), c.Misses(), c.Evictions(), units.ByteSize(c.Bytes())
}

// Admission returns the Eq. 8 admission probability of site i.
func (l *LRU) Admission(i workload.SiteID) float64 { return l.admit[i] }
