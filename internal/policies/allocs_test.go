package policies

import (
	"slices"
	"testing"

	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// optRef is one optional link of a page.
type optRef struct {
	page workload.PageID
	idx  int
}

// decider is the part of httpsim.Decider that serves objects.
type decider interface {
	Compulsory(workload.PageID) (local, remote units.ByteSize, localReqs int64)
	OptLocal(workload.PageID, int) bool
}

// siteRefs returns those of site i's pages whose compulsory objects no
// earlier one references, and the optional links whose objects no earlier
// page or link references — each object's first reference only: cycled
// through a cache smaller than their objects, every one misses.
func siteRefs(w *workload.Workload, i workload.SiteID) (pages []workload.PageID, opt []optRef) {
	seen := make([]bool, w.NumObjects())
	fresh := func(objs []workload.ObjectID) bool {
		for n, k := range objs {
			if seen[k] || slices.Contains(objs[:n], k) {
				return false
			}
		}
		for _, k := range objs {
			seen[k] = true
		}
		return true
	}
	for _, pid := range w.Sites[i].Pages {
		if fresh(w.Pages[pid].Compulsory) {
			pages = append(pages, pid)
		}
	}
	for _, pid := range w.Sites[i].Pages {
		for idx, l := range w.Pages[pid].Optional {
			if fresh([]workload.ObjectID{l.Object}) {
				opt = append(opt, optRef{pid, idx})
			}
		}
	}
	return pages, opt
}

// TestDecidersAllocateNothing: Static serves from tables built with it, and
// once warm, LRU and Threshold serve cache hits and evicting misses through
// Compulsory and OptLocal — all without allocating: the caches and access
// counts are sized to the workload's objects when they are built.
func TestDecidersAllocateNothing(t *testing.T) {
	w := testWorkload(t)
	const site = 0
	pages, opt := siteRefs(w, site)
	if len(pages) == 0 || len(opt) == 0 {
		t.Fatalf("site %d has %d fresh pages and %d optional references", site, len(pages), len(opt))
	}
	passes := []struct {
		kind  string
		n     int
		serve func(decider)
	}{
		{"Compulsory", len(pages), func(d decider) {
			for _, pid := range pages {
				d.Compulsory(pid)
			}
		}},
		{"OptLocal", len(opt), func(d decider) {
			for _, r := range opt {
				d.OptLocal(r.page, r.idx)
			}
		}},
	}
	// allocs counts every allocation of one pass, not an average that rounds
	// a few allocating calls down to 0.
	allocs := func(d decider, serve func(decider)) float64 {
		return testing.AllocsPerRun(1, func() { serve(d) })
	}
	type subject struct {
		name   string
		d      decider
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
	// Hits: every object fits, and LRU's admission gate draws on each hit.
	hits := build(model.FullBudgets(w).Scale(w, 1, 0.05))
	// Evicting misses: a cache of 2 % of the site's objects, cycled through.
	misses := build(model.FullBudgets(w).Scale(w, 0.02, 1))
	for _, p := range passes {
		if n := allocs(NewLocal(w), p.serve); n != 0 {
			t.Errorf("Static %s: %d calls allocate %v objects, want 0", p.kind, p.n, n)
		}
		for _, s := range hits {
			c := s.caches[site]
			p.serve(s.d)
			before := c.Misses()
			if n := allocs(s.d, p.serve); n != 0 {
				t.Errorf("%s %s: %d calls on hits allocate %v objects, want 0", s.name, p.kind, p.n, n)
			}
			if c.Misses() != before {
				t.Errorf("%s %s: %d misses on a warm cache", s.name, p.kind, c.Misses()-before)
			}
		}
		for _, s := range misses {
			c := s.caches[site]
			p.serve(s.d)
			p.serve(s.d)
			h0, e0 := c.Hits(), c.Evictions()
			if n := allocs(s.d, p.serve); n != 0 {
				t.Errorf("%s %s: %d calls on evicting misses allocate %v objects, want 0", s.name, p.kind, p.n, n)
			}
			if c.Hits() != h0 || c.Evictions() == e0 {
				t.Errorf("%s %s: %d hits and %d evictions cycling a tight cache, want 0 and some",
					s.name, p.kind, c.Hits()-h0, c.Evictions()-e0)
			}
		}
	}
}
