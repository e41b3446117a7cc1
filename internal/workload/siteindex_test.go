package workload

import (
	"slices"
	"sync"
	"testing"
)

// scanSiteIndex is the reference SiteIndex must match: a scan of every page
// in page order, collecting site i's references per object, compulsory
// before optional within a page.
func scanSiteIndex(w *Workload, i SiteID) [][]ObjectRef {
	byObject := make([][]ObjectRef, w.NumObjects())
	for j := range w.Pages {
		pg := &w.Pages[j]
		if pg.Site != i {
			continue
		}
		for idx, k := range pg.Compulsory {
			byObject[k] = append(byObject[k], ObjectRef{Page: PageID(j), Idx: int32(idx)})
		}
		for idx, l := range pg.Optional {
			byObject[l.Object] = append(byObject[l.Object], ObjectRef{Page: PageID(j), Idx: int32(idx), Optional: true})
		}
	}
	return byObject
}

// TestSiteIndex holds each site's index to the scan, on a workload and on
// a Derive copy whose site page lists are reversed (the build walks pages
// in ascending ID whatever order a site lists them in). The index is built
// on first use only, the copy builds its own, and racing first uses all
// return the index stored first.
func TestSiteIndex(t *testing.T) {
	w := MustGenerate(SmallConfig(), 5)
	c := w.Derive()
	for i := range c.Sites {
		pages := slices.Clone(c.Sites[i].Pages)
		slices.Reverse(pages)
		c.Sites[i].Pages = pages
	}
	for _, w := range []*Workload{w, c} {
		for i := range SiteID(w.NumSites()) {
			if w.SiteIndexBuilt(i) {
				t.Fatalf("site %d's index is built before its first use", i)
			}
			off, refs := w.SiteIndex(i)
			if !w.SiteIndexBuilt(i) {
				t.Fatalf("site %d's index is unbuilt after its first use", i)
			}
			want := scanSiteIndex(w, i)
			if len(off) != len(want)+1 || int(off[len(want)]) != len(refs) {
				t.Fatalf("site %d: %d offsets ending at %d for %d objects and %d refs", i, len(off), off[len(off)-1], len(want), len(refs))
			}
			for k := range want {
				if got := refs[off[k]:off[k+1]]; !slices.Equal(got, want[k]) {
					t.Fatalf("site %d object %d: refs %v, scan %v", i, k, got, want[k])
				}
			}
		}
	}
	_, a := w.SiteIndex(0)
	_, b := c.SiteIndex(0)
	if &a[0] == &b[0] {
		t.Error("a Derive copy shares its source's site index")
	}

	fresh := MustGenerate(SmallConfig(), 5)
	got := make([][]ObjectRef, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range SiteID(fresh.NumSites()) {
				_, refs := fresh.SiteIndex(i)
				if i == 0 {
					got[g] = refs
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if _, refs := fresh.SiteIndex(0); &got[g][0] != &refs[0] {
			t.Errorf("goroutine %d read a site index other than the one stored", g)
		}
	}
}
