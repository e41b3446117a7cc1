package core

import (
	"container/heap"
	"testing"

	"repro/internal/rng"
)

// newLazyHeap heapifies the given items in place.
func newLazyHeap(items []heapItem) *lazyHeap {
	h := &lazyHeap{items: items}
	h.heapify()
	return h
}

// stdHeap is the container/heap-backed lazy heap that lazyHeap was ported
// from, kept as the reference for the pop order among equal keys.
type stdHeap []heapItem

func (h stdHeap) Len() int            { return len(h) }
func (h stdHeap) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h stdHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stdHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *stdHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// popFresh is lazyHeap.popFresh over container/heap.
func (h *stdHeap) popFresh(recompute func(id int64) (float64, bool)) (int64, float64, bool) {
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		key, valid := recompute(it.id)
		if !valid {
			continue
		}
		if h.Len() > 0 && key > (*h)[0].key+1e-12 {
			heap.Push(h, heapItem{key: key, id: it.id})
			continue
		}
		return it.id, key, true
	}
	return 0, 0, false
}

// TestLazyHeapMatchesContainerHeap drives lazyHeap and the container/heap
// reference with one seeded script — a heapify of massively tied keys, then
// popFresh interleaved with mutations that re-key some ids and invalidate
// others — and demands the identical (id, key) pop sequence. Which of two
// equal keys pops first is part of the planner's output (it picks the
// replica to evict), so a heap that is merely correct fails here.
func TestLazyHeapMatchesContainerHeap(t *testing.T) {
	keys := []float64{0, 0, 0.25, 1, 3} // few values: ties everywhere
	for seed := uint64(1); seed <= 20; seed++ {
		s := rng.New(seed)
		n := 1 + s.IntN(400)
		cur := make([]float64, n)
		valid := make([]bool, n)
		items := make([]heapItem, n)
		for id := range items {
			cur[id], valid[id] = keys[s.IntN(len(keys))], true
			items[id] = heapItem{key: cur[id], id: int64(id)}
		}
		got := newLazyHeap(append([]heapItem(nil), items...))
		want := stdHeap(append([]heapItem(nil), items...))
		heap.Init(&want)

		recompute := func(id int64) (float64, bool) { return cur[id], valid[id] }
		for step := 0; ; step++ {
			gi, gk, gok := got.popFresh(recompute)
			wi, wk, wok := want.popFresh(recompute)
			if gi != wi || gk != wk || gok != wok {
				t.Fatalf("seed %d step %d: popFresh = (%d, %v, %v), container/heap gives (%d, %v, %v)",
					seed, step, gi, gk, gok, wi, wk, wok)
			}
			if !gok {
				break
			}
			// The mutation a greedy step causes: some keys go stale, some
			// candidates stop being valid.
			for m := s.IntN(6); m > 0; m-- {
				cur[s.IntN(n)] = keys[s.IntN(len(keys))]
			}
			if s.Bool(0.3) {
				valid[s.IntN(n)] = false
			}
		}
		if len(got.items) != 0 || want.Len() != 0 {
			t.Fatalf("seed %d: heaps not drained (%d, %d left)", seed, len(got.items), want.Len())
		}
	}
}
