// Package model implements the paper's cost model (Section 3): the
// placement matrices X and X', the retrieval-time expressions Eq. 3-6, the
// weighted objective D = α1·D1 + α2·D2 (Eq. 7) and the capacity/storage
// constraints Eq. 8-10. Everything here is *pure evaluation* over a
// placement; the algorithms that search placements live in internal/core
// and internal/policies, and validate their incremental bookkeeping against
// this package in tests.
package model

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/units"
	"repro/internal/workload"
)

// Placement is an assignment of the decision matrices for one workload:
// for page j, XComp(j)[idx] is X_jk for the idx-th compulsory object of the
// page, and XOpt(j)[idx] is the optional part of X' for the idx-th optional
// link. Stored(i) is the set of objects replicated at site i. The core
// invariant — any object marked for local download must be stored at the
// page's site — is checked by CheckInvariants; an object may be stored yet
// not marked local on some page (the paper exploits this during
// restoration).
type Placement struct {
	w *workload.Workload

	// X and X' are one slab each; compOff and optOff bound page j's rows.
	xComp, xOpt []bool

	stored      []*bitset.Set
	storedBytes []units.ByteSize // MO bytes only; HTML accounted separately
	// Constants of the workload, read-only and shared by every clone: the row
	// offsets, and htmlBytes[i] = workload.HTMLStorageBytes(i), summed once.
	compOff, optOff []int32
	htmlBytes       []units.ByteSize
}

// NewPlacement returns an all-remote placement: X = 0, X' covers nothing,
// no objects stored.
func NewPlacement(w *workload.Workload) *Placement {
	p := &Placement{
		w:           w,
		stored:      make([]*bitset.Set, w.NumSites()),
		storedBytes: make([]units.ByteSize, w.NumSites()),
		compOff:     make([]int32, w.NumPages()+1),
		optOff:      make([]int32, w.NumPages()+1),
		htmlBytes:   make([]units.ByteSize, w.NumSites()),
	}
	for j := range w.Pages {
		p.compOff[j+1] = p.compOff[j] + int32(len(w.Pages[j].Compulsory))
		p.optOff[j+1] = p.optOff[j] + int32(len(w.Pages[j].Optional))
	}
	p.xComp = make([]bool, p.compOff[w.NumPages()])
	p.xOpt = make([]bool, p.optOff[w.NumPages()])
	for i := range p.stored {
		p.stored[i] = bitset.New(w.NumObjects())
		p.htmlBytes[i] = w.HTMLStorageBytes(workload.SiteID(i))
	}
	return p
}

// Workload returns the workload the placement is over.
func (p *Placement) Workload() *workload.Workload { return p.w }

// compRow and optRow are page j's rows of X and X'.
func (p *Placement) compRow(j int) []bool { return p.xComp[p.compOff[j]:p.compOff[j+1]] }
func (p *Placement) optRow(j int) []bool  { return p.xOpt[p.optOff[j]:p.optOff[j+1]] }

// CompLocal reports X_jk for page j's idx-th compulsory object.
func (p *Placement) CompLocal(j workload.PageID, idx int) bool { return p.xComp[int(p.compOff[j])+idx] }

// OptLocal reports the optional part of X'_jk for page j's idx-th link.
func (p *Placement) OptLocal(j workload.PageID, idx int) bool { return p.xOpt[int(p.optOff[j])+idx] }

// SetCompLocal sets X_jk. It does not touch the store: callers mark
// downloads and manage replicas explicitly, then CheckInvariants ties the
// two together.
func (p *Placement) SetCompLocal(j workload.PageID, idx int, local bool) {
	p.xComp[int(p.compOff[j])+idx] = local
}

// SetOptLocal sets the optional part of X'_jk.
func (p *Placement) SetOptLocal(j workload.PageID, idx int, local bool) {
	p.xOpt[int(p.optOff[j])+idx] = local
}

// IsStored reports whether object k is replicated at site i.
func (p *Placement) IsStored(i workload.SiteID, k workload.ObjectID) bool {
	return p.stored[i].Test(int(k))
}

// Store replicates object k at site i (idempotent).
func (p *Placement) Store(i workload.SiteID, k workload.ObjectID) {
	if !p.stored[i].Test(int(k)) {
		p.stored[i].Set(int(k))
		p.storedBytes[i] += p.w.ObjectSize(k)
	}
}

// Unstore removes object k from site i's store (idempotent). The caller is
// responsible for clearing any X/X' marks that referenced the replica.
func (p *Placement) Unstore(i workload.SiteID, k workload.ObjectID) {
	if p.stored[i].Test(int(k)) {
		p.stored[i].Clear(int(k))
		p.storedBytes[i] -= p.w.ObjectSize(k)
	}
}

// CopyStore makes site i's store a copy of src's. src must be a placement
// over a workload with the same objects, such as a re-homed clone.
func (p *Placement) CopyStore(i workload.SiteID, src *Placement) {
	p.stored[i] = src.stored[i].Clone()
	p.storedBytes[i] = src.storedBytes[i]
}

// StoredSet returns (a reference to) the store bitset of site i. Callers
// must treat it as read-only.
func (p *Placement) StoredSet(i workload.SiteID) *bitset.Set { return p.stored[i] }

// StoredMOBytes returns the MO bytes stored at site i.
func (p *Placement) StoredMOBytes(i workload.SiteID) units.ByteSize { return p.storedBytes[i] }

// StorageUsed returns the Eq. 10 left-hand side for site i: HTML documents
// plus stored MOs.
func (p *Placement) StorageUsed(i workload.SiteID) units.ByteSize {
	return p.htmlBytes[i] + p.storedBytes[i]
}

// Clone returns a deep copy of the placement.
func (p *Placement) Clone() *Placement {
	c := *p
	c.xComp = slices.Clone(p.xComp)
	c.xOpt = slices.Clone(p.xOpt)
	c.stored = make([]*bitset.Set, len(p.stored))
	c.storedBytes = slices.Clone(p.storedBytes)
	for i := range p.stored {
		c.stored[i] = p.stored[i].Clone()
	}
	return &c
}

// AllLocal returns a placement where every compulsory and optional object is
// downloaded locally and stored (the paper's "Local policy" starting point).
func AllLocal(w *workload.Workload) *Placement {
	p := NewPlacement(w)
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			p.SetCompLocal(workload.PageID(j), idx, true)
			p.Store(pg.Site, k)
		}
		for idx, l := range pg.Optional {
			p.SetOptLocal(workload.PageID(j), idx, true)
			p.Store(pg.Site, l.Object)
		}
	}
	return p
}

// AllRemote returns the all-remote placement (the "Remote policy").
func AllRemote(w *workload.Workload) *Placement { return NewPlacement(w) }

// CheckInvariants verifies that every locally-marked download is backed by a
// stored replica and that the cached stored-bytes accounting matches the
// bitsets. Algorithms call this in tests after every mutation batch.
func (p *Placement) CheckInvariants() error {
	for j := range p.w.Pages {
		pg := &p.w.Pages[j]
		stored := p.stored[pg.Site]
		for idx, local := range p.compRow(j) {
			if k := pg.Compulsory[idx]; local && !stored.Test(int(k)) {
				return fmt.Errorf("model: page %d marks compulsory object %d local but site %d does not store it", j, k, pg.Site)
			}
		}
		for idx, local := range p.optRow(j) {
			if k := pg.Optional[idx].Object; local && !stored.Test(int(k)) {
				return fmt.Errorf("model: page %d marks optional object %d local but site %d does not store it", j, k, pg.Site)
			}
		}
	}
	for i := range p.stored {
		var sum units.ByteSize
		p.stored[i].ForEach(func(k int) bool {
			sum += p.w.ObjectSize(workload.ObjectID(k))
			return true
		})
		if sum != p.storedBytes[i] {
			return fmt.Errorf("model: site %d stored-bytes cache %d != recomputed %d", i, p.storedBytes[i], sum)
		}
	}
	return nil
}
