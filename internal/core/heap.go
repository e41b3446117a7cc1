package core

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
// The sift routines are container/heap's Init, Push, Pop, up and down with
// the interface calls written out, step for step. Restoration keys tie
// massively (every stored object without a local mark costs 0), the pop
// order among equal keys is decided by the sift sequence, and that order
// decides which replica is evicted: any other heap is a different plan.
type lazyHeap struct {
	items []heapItem
}

// heapify establishes the heap order over h.items in place.
func (h *lazyHeap) heapify() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// built reports whether the heap holds a candidate buffer: a heap is built
// in a non-nil buffer, however many of its items have been popped since.
func (h *lazyHeap) built() bool { return h.items != nil }

// push adds an item.
func (h *lazyHeap) push(it heapItem) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum item; ok is false when empty.
func (h *lazyHeap) pop() (heapItem, bool) {
	n := len(h.items) - 1
	if n < 0 {
		return heapItem{}, false
	}
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it, true
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

func (h *lazyHeap) down(i, n int) {
	s := h.items
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].key < s[j1].key {
			j = j2 // right child
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
