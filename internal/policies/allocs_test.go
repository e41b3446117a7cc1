package policies

import (
	"testing"

	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/workload"
)

// ref is one object reference of a page: compulsory index, or optional link
// index when opt is set.
type ref struct {
	page workload.PageID
	idx  int
	opt  bool
	obj  workload.ObjectID
}

// cachingDecider is the part of httpsim.Decider the stateful baselines
// implement with a cache.
type cachingDecider interface {
	CompLocal(workload.PageID, int) bool
	OptLocal(workload.PageID, int) bool
}

func serveRef(d cachingDecider, r ref) bool {
	if r.opt {
		return d.OptLocal(r.page, r.idx)
	}
	return d.CompLocal(r.page, r.idx)
}

// siteRefs returns site i's compulsory and optional references in page
// order, each object's first reference only: cycled through a cache smaller
// than their objects, every one misses.
func siteRefs(w *workload.Workload, i workload.SiteID) (comp, opt []ref) {
	seen := make([]bool, w.NumObjects())
	add := func(refs []ref, r ref) []ref {
		if seen[r.obj] {
			return refs
		}
		seen[r.obj] = true
		return append(refs, r)
	}
	for _, pid := range w.Sites[i].Pages {
		pg := &w.Pages[pid]
		for idx, k := range pg.Compulsory {
			comp = add(comp, ref{page: pid, idx: idx, obj: k})
		}
		for idx, l := range pg.Optional {
			opt = add(opt, ref{page: pid, idx: idx, opt: true, obj: l.Object})
		}
	}
	return comp, opt
}

// TestDecidersAllocateNothing: once warm, LRU and Threshold serve a cache
// hit and an evicting miss through CompLocal and OptLocal without
// allocating — their caches and access counts are sized to the workload's
// objects when they are built.
func TestDecidersAllocateNothing(t *testing.T) {
	w := testWorkload(t)
	const site = 0
	comp, opt := siteRefs(w, site)
	if len(comp) == 0 || len(opt) == 0 {
		t.Fatalf("site %d has %d compulsory and %d optional references", site, len(comp), len(opt))
	}
	type subject struct {
		name   string
		d      cachingDecider
		caches []*lru.Cache
	}
	build := func(b model.Budgets) []subject {
		l, err := NewLRU(w, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		th, err := NewThreshold(w, b, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return []subject{{"LRU", l, l.caches}, {"Threshold", th, th.caches}}
	}
	serveAll := func(d cachingDecider, refs []ref) {
		for _, r := range refs {
			serveRef(d, r)
		}
	}
	// allocs counts every allocation of one pass over refs, not an average
	// that rounds a few allocating calls down to 0.
	allocs := func(d cachingDecider, refs []ref) float64 {
		return testing.AllocsPerRun(1, func() { serveAll(d, refs) })
	}
	// Hits: every object fits, and LRU's admission gate draws on each hit.
	hits := build(model.FullBudgets(w).Scale(w, 1, 0.05))
	// Evicting misses: a cache of 2 % of the site's objects, cycled through.
	misses := build(model.FullBudgets(w).Scale(w, 0.02, 1))
	for _, refs := range [][]ref{comp, opt} {
		kind := map[bool]string{false: "CompLocal", true: "OptLocal"}[refs[0].opt]
		for _, s := range hits {
			c := s.caches[site]
			serveAll(s.d, refs)
			before := c.Misses()
			if n := allocs(s.d, refs); n != 0 {
				t.Errorf("%s %s: %d hits allocate %v objects, want 0", s.name, kind, len(refs), n)
			}
			if c.Misses() != before {
				t.Errorf("%s %s: %d misses on a warm cache", s.name, kind, c.Misses()-before)
			}
		}
		for _, s := range misses {
			c := s.caches[site]
			serveAll(s.d, refs)
			serveAll(s.d, refs)
			h0, e0 := c.Hits(), c.Evictions()
			if n := allocs(s.d, refs); n != 0 {
				t.Errorf("%s %s: %d evicting misses allocate %v objects, want 0", s.name, kind, len(refs), n)
			}
			if c.Hits() != h0 || c.Evictions() == e0 {
				t.Errorf("%s %s: %d hits and %d evictions cycling a tight cache, want 0 and some",
					s.name, kind, c.Hits()-h0, c.Evictions()-e0)
			}
		}
	}
}
