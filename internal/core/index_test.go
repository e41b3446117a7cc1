package core

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/workload"
)

// flatIndex is the (site, object) index NewPlanner once built for every
// site up front, kept as the reference the per-site build must reproduce:
// one counting pass over every page in page order, pair (i, k) at slot
// i·NumObjects+k, so refs[off[s]:off[s+1]] lists the slot's references in
// page order, compulsory before optional within a page.
func flatIndex(w *workload.Workload) (off []int32, refs []objRef) {
	slot := func(i workload.SiteID, k workload.ObjectID) int { return int(i)*w.NumObjects() + int(k) }
	off = make([]int32, w.NumSites()*w.NumObjects()+2)
	for j := range w.Pages {
		pg := &w.Pages[j]
		for _, k := range pg.Compulsory {
			off[slot(pg.Site, k)+2]++
		}
		for _, l := range pg.Optional {
			off[slot(pg.Site, l.Object)+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	refs = make([]objRef, off[len(off)-1])
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			next := &off[slot(pg.Site, k)+1]
			refs[*next] = objRef{Page: workload.PageID(j), Idx: int32(idx)}
			*next++
		}
		for idx, l := range pg.Optional {
			next := &off[slot(pg.Site, l.Object)+1]
			refs[*next] = objRef{Page: workload.PageID(j), Idx: int32(idx), Optional: true}
			*next++
		}
	}
	return off[:len(off)-1], refs
}

// shuffledSites clones w with every site's page list in a random order,
// which workload.Validate accepts.
func shuffledSites(w *workload.Workload, s *rng.Stream) *workload.Workload {
	c := w.Derive()
	for i := range c.Sites {
		pages := slices.Clone(c.Sites[i].Pages)
		for a := len(pages) - 1; a > 0; a-- {
			b := s.IntN(a + 1)
			pages[a], pages[b] = pages[b], pages[a]
		}
		c.Sites[i].Pages = pages
	}
	return c
}

// TestSiteIndexMatchesFlat holds every site's index, built on first use, to
// the flat reference for every (site, object) pair: after a constrained
// plan (restoration builds some sites' indexes mid-plan) of a small
// workload, of a repair's re-homed clone of it, and of a clone whose site
// page lists are shuffled — the order deallocate flips in is ascending page
// ID whatever order a site lists its pages in.
func TestSiteIndexMatchesFlat(t *testing.T) {
	base := genEnv(t, 46)
	shuffled := shuffledSites(base.W, rng.New(46))
	if slices.IsSorted(shuffled.Sites[0].Pages) {
		t.Fatal("the shuffled clone lists site 0's pages in order: it tests nothing")
	}
	for _, c := range []struct {
		name string
		w    *workload.Workload
	}{{"planned", base.W}, {"re-homed", rehomed(base.W, 1)}, {"shuffled sites", shuffled}} {
		if err := c.w.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		env, err := model.NewEnv(c.w, base.Est, model.FullBudgets(c.w).Scale(c.w, 0.4, 0.8))
		if err != nil {
			t.Fatal(err)
		}
		pl := partition(env, Options{Workers: 1})
		if _, res, err := pl.finish(Options{Workers: 1}); err != nil || res.Sites[0].Deallocs == 0 {
			t.Fatalf("%s: the plan restores no storage (err %v)", c.name, err)
		}
		off, refs := flatIndex(c.w)
		for i := range workload.SiteID(c.w.NumSites()) {
			for k := range workload.ObjectID(c.w.NumObjects()) {
				s := int(i)*c.w.NumObjects() + int(k)
				if got, want := pl.refsOf(i, k), refs[off[s]:off[s+1]]; !slices.Equal(got, want) {
					t.Fatalf("%s: site %d object %d: refs %v, flat reference %v", c.name, i, k, got, want)
				}
			}
		}
		if err := pl.VerifyConsistency(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestFullBudgetPlanBuildsNoIndex pins the laziness: a plan within every
// budget restores nothing, so core.Plan builds no site's index on the
// workload, while Partition, whose copies share the workload's indexes,
// builds them all.
func TestFullBudgetPlanBuildsNoIndex(t *testing.T) {
	env := genEnv(t, 424242)
	pl := partition(env, Options{Workers: 1})
	if _, _, err := pl.finish(Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range workload.SiteID(env.W.NumSites()) {
		if env.W.SiteIndexBuilt(i) {
			t.Errorf("a full-budget plan built site %d's index", i)
		}
	}
	Partition(env, Options{Workers: 1})
	for i := range workload.SiteID(env.W.NumSites()) {
		if !env.W.SiteIndexBuilt(i) {
			t.Errorf("Partition left site %d's index unbuilt", i)
		}
	}
}
