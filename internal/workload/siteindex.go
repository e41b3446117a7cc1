package workload

import (
	"slices"
	"sync/atomic"
)

// ObjectRef locates one reference of an object on a page: Idx indexes the
// page's Compulsory (Optional == false) or Optional (Optional == true) list.
type ObjectRef struct {
	Page     PageID
	Idx      int32
	Optional bool
}

// siteIndex is one site's (object) index: refs[off[k]:off[k+1]] lists every
// reference of object k by a page of the site.
type siteIndex struct {
	off  []int32
	refs []ObjectRef
}

// SiteIndex returns site i's (object) index, building it on the site's
// first call: refs[off[k]:off[k+1]] lists every reference of object k by a
// page of site i, in ascending page ID and compulsory before optional
// within a page. It depends on the site's page list and its pages'
// compulsory and optional lists, so it is read-only once built and every
// plan of the workload reads the one built; a Derive copy, which may
// replace those lists, builds its own. It is safe for concurrent use:
// racing first calls may each build one, and all of them return the one
// that was stored first.
func (w *Workload) SiteIndex(i SiteID) (off []int32, refs []ObjectRef) {
	tab := w.index.Load()
	if tab == nil {
		sites := make([]atomic.Pointer[siteIndex], len(w.Sites))
		w.index.CompareAndSwap(nil, &sites)
		tab = w.index.Load()
	}
	x := (*tab)[i].Load()
	if x == nil {
		(*tab)[i].CompareAndSwap(nil, buildSiteIndex(w, i))
		x = (*tab)[i].Load()
	}
	return x.off, x.refs
}

// SiteIndexBuilt reports whether site i's index has been built, without
// building it.
func (w *Workload) SiteIndexBuilt(i SiteID) bool {
	tab := w.index.Load()
	return tab != nil && (*tab)[i].Load() != nil
}

// buildSiteIndex indexes site i's pages in ascending page ID: Validate
// does not require a site's page list to be sorted, so an unsorted one is
// walked through a sorted copy. The counts are shifted by two: the prefix
// sum leaves object k's start in off[k+1], the fill advances it to k's end
// — the next object's start — and off[k] has then become the offset proper,
// with no separate array of fill cursors.
func buildSiteIndex(w *Workload, i SiteID) *siteIndex {
	pages := w.Sites[i].Pages
	if !slices.IsSorted(pages) {
		pages = slices.Clone(pages)
		slices.Sort(pages)
	}
	off := make([]int32, len(w.Objects)+2)
	for _, pid := range pages {
		pg := &w.Pages[pid]
		for _, k := range pg.Compulsory {
			off[k+2]++
		}
		for _, l := range pg.Optional {
			off[l.Object+2]++
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	refs := make([]ObjectRef, off[len(off)-1])
	for _, pid := range pages {
		pg := &w.Pages[pid]
		for idx, k := range pg.Compulsory {
			refs[off[k+1]] = ObjectRef{pid, int32(idx), false}
			off[k+1]++
		}
		for idx, l := range pg.Optional {
			refs[off[l.Object+1]] = ObjectRef{pid, int32(idx), true}
			off[l.Object+1]++
		}
	}
	return &siteIndex{off: off[:len(off)-1], refs: refs}
}
