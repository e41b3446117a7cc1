package workload

import "slices"

// PartitionOrder lists every page's compulsory objects in the visit order
// of the paper's PARTITION (Section 4.2): decreasing size, equal sizes in
// their order on the page. It depends on nothing but object sizes and
// compulsory lists, so a workload builds it once, on first use
// (Workload.PartitionOrder), and shares it with every Derive copy. It is
// read-only once built.
type PartitionOrder struct {
	// Page j's visit order is idx[off[j]:off[j+1]]: indices into its
	// Compulsory list, 2 bytes per reference (Validate holds a page to
	// 1<<PageRefBits of them).
	idx []uint16
	off []int
}

// Page returns page j's compulsory indices in PARTITION's visit order. A
// nil order returns nil, which callers read as page order.
func (o *PartitionOrder) Page(j PageID) []uint16 {
	if o == nil {
		return nil
	}
	return o.idx[o.off[j]:o.off[j+1]]
}

// PartitionOrder returns the workload's PARTITION visit order, building it
// on the first call. It is safe for concurrent use: racing first calls may
// each build one, and all of them return the one that was stored first.
func (w *Workload) PartitionOrder() *PartitionOrder {
	if o := w.order.Load(); o != nil {
		return o
	}
	w.order.CompareAndSwap(nil, buildPartitionOrder(w))
	return w.order.Load()
}

// Derive returns a shallow copy of w for re-estimates, re-homing and budget
// sweeps: its own Pages and Sites slices, sharing Objects, every page's
// Compulsory and Optional lists, every site's page and object lists, and
// the PARTITION order (built here if w has none yet), but not the site
// indexes (SiteIndex), which the copy builds from its own lists. The caller
// may set a copy's page Site, Freq, Hot and HTMLSize, replace a site's
// Pages, Objects or Capacity, and replace a page's Optional list — before
// the copy is planned, and never change an object size or a compulsory
// list, which the shared order was sorted by.
func (w *Workload) Derive() *Workload {
	out := &Workload{
		Config:  w.Config,
		Seed:    w.Seed,
		Objects: w.Objects,
		Pages:   slices.Clone(w.Pages),
		Sites:   slices.Clone(w.Sites),
	}
	out.order.Store(w.PartitionOrder())
	return out
}

// insertionSortMax is the longest page whose visit order is insertion
// sorted; slices.Sort keeps a longer page from taking quadratic time. Every
// fresh workload's first plan builds the order: on Table-1 pages (5-45
// compulsory objects) insertion sort takes 3.4 ms, slices.Sort 4.8 ms, and
// plan-unconstrained's setup_s reads 10 % higher with slices.Sort alone
// (go1.24, 2 vCPUs).
const insertionSortMax = 64

// buildPartitionOrder sorts each page's compulsory objects by one ordered
// word per object: the complement of its size above its index, so ascending
// words are decreasing sizes with ties in index order — a strict total
// order, and Validate guards both widths.
func buildPartitionOrder(w *Workload) *PartitionOrder {
	o := &PartitionOrder{off: make([]int, len(w.Pages)+1)}
	for j := range w.Pages {
		o.off[j+1] = o.off[j] + len(w.Pages[j].Compulsory)
	}
	o.idx = make([]uint16, o.off[len(w.Pages)])
	var words []uint64
	for j := range w.Pages {
		words = words[:0]
		for idx, k := range w.Pages[j].Compulsory {
			words = append(words, uint64(MaxObjectSize-w.ObjectSize(k))<<PageRefBits|uint64(idx))
		}
		if len(words) > insertionSortMax {
			slices.Sort(words)
		} else {
			for i := 1; i < len(words); i++ {
				v, at := words[i], i
				for ; at > 0 && v < words[at-1]; at-- {
					words[at] = words[at-1]
				}
				words[at] = v
			}
		}
		for v, word := range words {
			o.idx[o.off[j]+v] = uint16(word & (1<<PageRefBits - 1))
		}
	}
	return o
}
