package core

import "math"

// heapItem is one candidate in a lazy-greedy selection: an opaque id with a
// possibly-stale key (smaller = apply earlier).
type heapItem struct {
	key float64
	id  int64
}

// lazyHeap is a min-heap of heapItems supporting the lazy-greedy pattern
// used by the restoration loops: keys are computed when items are pushed and
// may go stale as the state mutates; Pop'd items are re-validated by the
// caller and pushed back with a fresh key when they no longer beat the top.
// Between two state mutations every key recomputation is deterministic, so
// each item is refreshed at most once per mutation and the loop terminates.
//
// Restoration keys tie massively (every stored object without a local mark
// costs 0), the pop order among equal keys is decided by the array the
// sifts leave, and that order decides which replica is evicted. So every
// operation must leave exactly the array container/heap's Init, Push and
// Pop leave: any sift that does is the same plan, and any that does not is
// a different plan (TestLazyHeapArraysMatchContainerHeap compares the
// arrays). heapify and push are container/heap's sifts written out; pop is
// computed differently (see pop).
type lazyHeap struct {
	items []heapItem
	// nan is set once the heap has held a NaN key, which makes pop take
	// container/heap's own descent.
	nan bool
}

// heapify establishes the heap order over h.items in place.
func (h *lazyHeap) heapify() {
	n := len(h.items)
	for _, it := range h.items {
		h.nan = h.nan || math.IsNaN(it.key)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// built reports whether the heap holds a candidate buffer: a heap is built
// in a non-nil buffer, however many of its items have been popped since.
func (h *lazyHeap) built() bool { return h.items != nil }

// push adds an item.
func (h *lazyHeap) push(it heapItem) {
	h.nan = h.nan || math.IsNaN(it.key)
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum item; ok is false when empty.
//
// container/heap moves the last item x to the root and sifts it down,
// stopping at the first node whose smaller child is not below x. pop
// instead moves the hole at the root down the smaller-child path to a leaf,
// then climbs back up while the parent's key is not below x's, and puts x
// there. Keys never decrease along that path, so the climb stops exactly
// where the descent would have, ties included, and the array is the same;
// the descent no longer branches on x, and the child choice compiles to a
// flag set, not a jump. A NaN key breaks the ordering the argument needs,
// so a heap that has held one sifts as container/heap does.
func (h *lazyHeap) pop() (heapItem, bool) {
	s := h.items
	n := len(s) - 1
	if n < 0 {
		return heapItem{}, false
	}
	top, x := s[0], s[n]
	h.items = s[:n]
	if h.nan {
		s[0] = x
		h.down(0, n)
		return top, true
	}
	i := 0
	for {
		j := 2*i + 1
		if j+1 >= n {
			if j < n { // a lone left child
				s[i] = s[j]
				i = j
			}
			break
		}
		c := s[j : j+2 : j+2]
		r := 0
		if c[1].key < c[0].key {
			r = 1
		}
		j += r
		s[i] = s[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key < x.key {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
	return top, true
}

func (h *lazyHeap) up(j int) {
	s := h.items
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// down is container/heap's sift-down over s[:n], with the smaller child
// chosen as pop chooses it: the right one only when its key is below the
// left one's.
func (h *lazyHeap) down(i, n int) {
	s := h.items
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j+1 < n {
			c := s[j : j+2 : j+2]
			r := 0
			if c[1].key < c[0].key {
				r = 1
			}
			j += r
		}
		if !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// popFresh implements the lazy-greedy pop: it returns the id whose *fresh*
// key (as computed by recompute) is minimal. Items whose recompute returns
// valid=false are dropped. ok=false when the heap is exhausted.
func (h *lazyHeap) popFresh(recompute func(id int64) (key float64, valid bool)) (int64, float64, bool) {
	const eps = 1e-12
	for {
		it, ok := h.pop()
		if !ok {
			return 0, 0, false
		}
		key, valid := recompute(it.id)
		if !valid {
			continue
		}
		if len(h.items) > 0 && key > h.items[0].key+eps {
			// Fresh key no longer beats the rest — refresh and retry.
			// (Between two mutations recomputation is deterministic, so two
			// items cannot alternate indefinitely: A re-pushed over B and B
			// re-pushed over A would need key_A > key_B + eps and vice versa.)
			h.push(heapItem{key: key, id: it.id})
			continue
		}
		return it.id, key, true
	}
}
