package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/workload"
)

// placementJSON is the serialized form of a Placement: per page, the
// indices (into the page's Compulsory/Optional lists) marked local; per
// site, the stored object IDs. It carries the workload's shape for
// validation on load.
type placementJSON struct {
	NumPages   int                   `json:"numPages"`
	NumObjects int                   `json:"numObjects"`
	NumSites   int                   `json:"numSites"`
	LocalComp  [][]int               `json:"localComp"`
	LocalOpt   [][]int               `json:"localOpt"`
	Stored     [][]workload.ObjectID `json:"stored"`
}

// Encode writes the placement as JSON.
func (p *Placement) Encode(dst io.Writer) error {
	out := placementJSON{
		NumPages:   p.w.NumPages(),
		NumObjects: p.w.NumObjects(),
		NumSites:   p.w.NumSites(),
		LocalComp:  make([][]int, p.w.NumPages()),
		LocalOpt:   make([][]int, p.w.NumPages()),
		Stored:     make([][]workload.ObjectID, len(p.stored)),
	}
	for j := range out.LocalComp {
		for idx, v := range p.compRow(j) {
			if v {
				out.LocalComp[j] = append(out.LocalComp[j], idx)
			}
		}
		for idx, v := range p.optRow(j) {
			if v {
				out.LocalOpt[j] = append(out.LocalOpt[j], idx)
			}
		}
	}
	for i, set := range p.stored {
		for _, k := range set.Members() {
			out.Stored[i] = append(out.Stored[i], workload.ObjectID(k))
		}
	}
	enc := json.NewEncoder(dst)
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("model: encode placement: %w", err)
	}
	return nil
}

// DecodePlacement reads a placement for the given workload, validating both
// shape and the stored-replica invariants.
func DecodePlacement(w *workload.Workload, src io.Reader) (*Placement, error) {
	var in placementJSON
	if err := json.NewDecoder(src).Decode(&in); err != nil {
		return nil, fmt.Errorf("model: decode placement: %w", err)
	}
	if in.NumPages != w.NumPages() || in.NumObjects != w.NumObjects() || in.NumSites != w.NumSites() {
		return nil, fmt.Errorf("model: placement shaped (%d pages, %d objects, %d sites) does not match workload (%d, %d, %d)",
			in.NumPages, in.NumObjects, in.NumSites, w.NumPages(), w.NumObjects(), w.NumSites())
	}
	if len(in.LocalComp) != w.NumPages() || len(in.LocalOpt) != w.NumPages() || len(in.Stored) != w.NumSites() {
		return nil, fmt.Errorf("model: placement arrays mis-sized")
	}
	p := NewPlacement(w)
	for i, stored := range in.Stored {
		for _, k := range stored {
			if k < 0 || int(k) >= w.NumObjects() {
				return nil, fmt.Errorf("model: site %d stores out-of-range object %d", i, k)
			}
			p.Store(workload.SiteID(i), k)
		}
	}
	for j, idxs := range in.LocalComp {
		row := p.compRow(j)
		for _, idx := range idxs {
			if idx < 0 || idx >= len(row) {
				return nil, fmt.Errorf("model: page %d compulsory index %d out of range", j, idx)
			}
			row[idx] = true
		}
	}
	for j, idxs := range in.LocalOpt {
		row := p.optRow(j)
		for _, idx := range idxs {
			if idx < 0 || idx >= len(row) {
				return nil, fmt.Errorf("model: page %d optional index %d out of range", j, idx)
			}
			row[idx] = true
		}
	}
	if err := p.CheckInvariants(); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveFile writes the placement to path.
func (p *Placement) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := p.Encode(bw); err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("model: %w", err)
	}
	return f.Close()
}

// LoadPlacementFile reads a placement for the workload from path.
func LoadPlacementFile(w *workload.Workload, path string) (*Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return DecodePlacement(w, bufio.NewReader(f))
}

// Equal reports whether two placements over the same workload have
// identical marks and stores.
func (p *Placement) Equal(o *Placement) bool {
	if p.w != o.w {
		if p.w.NumPages() != o.w.NumPages() || p.w.NumSites() != o.w.NumSites() {
			return false
		}
	}
	if !slices.Equal(p.compOff, o.compOff) || !slices.Equal(p.optOff, o.optOff) ||
		!slices.Equal(p.xComp, o.xComp) || !slices.Equal(p.xOpt, o.xOpt) {
		return false
	}
	for i := range p.stored {
		if !p.stored[i].Equal(o.stored[i]) {
			return false
		}
	}
	return true
}
