// Package workload defines the logical content of the paper's system — the
// company's pages W_1..W_n, multimedia objects M_1..M_m and local sites
// S_1..S_s — and the Table-1 synthetic generator that produces it. It is
// purely about *what exists and how often it is asked for*; network
// attributes (rates, overheads) live in internal/netsim and the placement
// decision (the X/X' matrices) in internal/model and internal/core.
package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/units"
)

// ObjectID identifies a multimedia object M_k, 0 ≤ k < NumObjects.
type ObjectID int

// PageID identifies a web page W_j (and its HTML document H_j) globally.
type PageID int

// SiteID identifies a local server S_i, 0 ≤ i < NumSites.
type SiteID int

// Object is one multimedia object in the central repository.
type Object struct {
	ID   ObjectID       `json:"id"`
	Size units.ByteSize `json:"size"`
}

// OptionalLink is one optional-object reference on a page: the object plus
// the probability U'_jk that a single page view leads to a request for it.
type OptionalLink struct {
	Object ObjectID `json:"object"`
	Prob   float64  `json:"prob"`
}

// Page is one web page: its host site (matrix A has A_ij = 1 for exactly one
// i), its HTML size, its peak-hour request frequency f(W_j), its compulsory
// objects (the U_jk = 1 entries) and its optional links (the U'_jk entries).
type Page struct {
	ID         PageID          `json:"id"`
	Site       SiteID          `json:"site"`
	HTMLSize   units.ByteSize  `json:"htmlSize"`
	Freq       units.ReqPerSec `json:"freq"`
	Hot        bool            `json:"hot"`
	Compulsory []ObjectID      `json:"compulsory"`
	Optional   []OptionalLink  `json:"optional,omitempty"`
}

// Site is one local server: the pages it hosts, the subset of the global
// object population its pages may reference, and its processing capacity
// C(S_i). Storage budgets are an experiment knob, not a property of the
// workload, so they are not stored here; FullStorageBytes reports the
// 100 %-storage requirement the sweeps scale.
type Site struct {
	ID       SiteID          `json:"id"`
	Pages    []PageID        `json:"pages"`
	Objects  []ObjectID      `json:"objects"`
	Capacity units.ReqPerSec `json:"capacity"`
}

// Workload is the complete generated environment. Object sizes, site page
// lists and every page's compulsory and optional lists are fixed once the
// workload is planned: the PARTITION visit order (PartitionOrder) is sorted
// by sizes and compulsory lists, and each site's (object) index
// (SiteIndex) is built from its pages' lists, on first use, and both are
// kept. A copy that re-estimates, re-homes or re-budgets the workload comes
// from Derive, the only way to share that order; a Workload is never copied
// by value (go vet flags such a copy).
type Workload struct {
	Config  Config   `json:"config"`
	Seed    uint64   `json:"seed"`
	Objects []Object `json:"objects"`
	Pages   []Page   `json:"pages"`
	Sites   []Site   `json:"sites"`

	order atomic.Pointer[PartitionOrder]
	// index holds one cell per site, each nil until SiteIndex builds it.
	index atomic.Pointer[[]atomic.Pointer[siteIndex]]
}

// NumSites returns s.
func (w *Workload) NumSites() int { return len(w.Sites) }

// NumPages returns n.
func (w *Workload) NumPages() int { return len(w.Pages) }

// NumObjects returns m.
func (w *Workload) NumObjects() int { return len(w.Objects) }

// ObjectSize returns Size(M_k).
func (w *Workload) ObjectSize(id ObjectID) units.ByteSize {
	return w.Objects[id].Size
}

// FullStorageBytes returns the storage a site needs to hold every byte its
// pages can reference: all HTML documents plus every distinct compulsory and
// optional MO. This is the "100 % storage capacity" point of Figure 1.
func (w *Workload) FullStorageBytes(i SiteID) units.ByteSize {
	var total units.ByteSize
	seen := make([]bool, len(w.Objects))
	for _, pid := range w.Sites[i].Pages {
		p := &w.Pages[pid]
		total += p.HTMLSize
		for _, k := range p.Compulsory {
			if !seen[k] {
				seen[k] = true
				total += w.Objects[k].Size
			}
		}
		for _, l := range p.Optional {
			if !seen[l.Object] {
				seen[l.Object] = true
				total += w.Objects[l.Object].Size
			}
		}
	}
	return total
}

// HTMLStorageBytes returns the bytes of HTML a site must always hold (pages
// live on their server by definition of the allocation matrix A).
func (w *Workload) HTMLStorageBytes(i SiteID) units.ByteSize {
	var total units.ByteSize
	for _, pid := range w.Sites[i].Pages {
		total += w.Pages[pid].HTMLSize
	}
	return total
}

// The planner's heap ids and PartitionOrder's sort keys pack a reference's
// index within its page and a compulsory object's size into single words:
// PageRefBits of index below 64-PageRefBits of size. Validate enforces both.
// PartitionOrder keeps each index in a uint16, 2 bytes per compulsory
// reference for as long as the workload lives.
const (
	PageRefBits                  = 16
	MaxObjectSize units.ByteSize = 1<<(64-PageRefBits) - 1
)

// Validate checks the structural invariants every consumer relies on:
// IDs are dense and consistent, each page lives on exactly one site, all
// referenced objects exist, compulsory and optional sets are disjoint,
// probabilities are in (0, 1], sizes and frequencies positive, and the
// planner's packing widths hold.
func (w *Workload) Validate() error {
	for k, o := range w.Objects {
		if o.ID != ObjectID(k) {
			return fmt.Errorf("workload: object %d has ID %d", k, o.ID)
		}
		if o.Size <= 0 {
			return fmt.Errorf("workload: object %d has size %d", k, o.Size)
		}
	}
	pageSite := make([]SiteID, len(w.Pages))
	for j := range pageSite {
		pageSite[j] = -1
	}
	for i, s := range w.Sites {
		if s.ID != SiteID(i) {
			return fmt.Errorf("workload: site %d has ID %d", i, s.ID)
		}
		if s.Capacity < 0 {
			return fmt.Errorf("workload: site %d has negative capacity", i)
		}
		for _, pid := range s.Pages {
			if pid < 0 || int(pid) >= len(w.Pages) {
				return fmt.Errorf("workload: site %d references page %d out of range", i, pid)
			}
			if pageSite[pid] != -1 {
				return fmt.Errorf("workload: page %d hosted by sites %d and %d", pid, pageSite[pid], i)
			}
			pageSite[pid] = SiteID(i)
		}
		for _, oid := range s.Objects {
			if oid < 0 || int(oid) >= len(w.Objects) {
				return fmt.Errorf("workload: site %d pool references object %d out of range", i, oid)
			}
		}
	}
	// stamp[k] records object k's last listing: 2j+1 compulsory on page
	// j, 2j+2 optional on page j. Marks only grow with j, so no page reads
	// an earlier page's mark as its own and nothing is cleared between
	// pages. (int32 marks reach 2^30 pages, far past any that fit in memory.)
	stamp := make([]int32, len(w.Objects))
	for j := range w.Pages {
		p := &w.Pages[j]
		if p.ID != PageID(j) {
			return fmt.Errorf("workload: page %d has ID %d", j, p.ID)
		}
		if pageSite[j] != p.Site {
			return fmt.Errorf("workload: page %d says site %d but is listed under %v", j, p.Site, pageSite[j])
		}
		if p.HTMLSize <= 0 {
			return fmt.Errorf("workload: page %d has HTML size %d", j, p.HTMLSize)
		}
		if p.Freq < 0 {
			return fmt.Errorf("workload: page %d has negative frequency", j)
		}
		if len(p.Compulsory) > 1<<PageRefBits || len(p.Optional) > 1<<PageRefBits {
			return fmt.Errorf("workload: page %d lists %d compulsory and %d optional objects; the planner indexes at most %d of each",
				j, len(p.Compulsory), len(p.Optional), 1<<PageRefBits)
		}
		compMark, optMark := int32(2*j+1), int32(2*j+2)
		for _, k := range p.Compulsory {
			if k < 0 || int(k) >= len(w.Objects) {
				return fmt.Errorf("workload: page %d compulsory object %d out of range", j, k)
			}
			if w.Objects[k].Size > MaxObjectSize {
				return fmt.Errorf("workload: page %d compulsory object %d has size %d; the planner sorts sizes up to %d", j, k, w.Objects[k].Size, MaxObjectSize)
			}
			if stamp[k] == compMark {
				return fmt.Errorf("workload: page %d lists compulsory object %d twice", j, k)
			}
			stamp[k] = compMark
		}
		for _, l := range p.Optional {
			if l.Object < 0 || int(l.Object) >= len(w.Objects) {
				return fmt.Errorf("workload: page %d optional object %d out of range", j, l.Object)
			}
			if stamp[l.Object] == compMark {
				return fmt.Errorf("workload: page %d object %d is both compulsory and optional", j, l.Object)
			}
			if stamp[l.Object] == optMark {
				return fmt.Errorf("workload: page %d lists optional object %d twice", j, l.Object)
			}
			stamp[l.Object] = optMark
			if l.Prob <= 0 || l.Prob > 1 {
				return fmt.Errorf("workload: page %d optional object %d has probability %v", j, l.Object, l.Prob)
			}
		}
	}
	return nil
}
