package core

import (
	"container/heap"
	"math"
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

// TestLazyHeapArraysMatchContainerHeap drives lazyHeap and the
// container/heap reference through one seeded script each of heapify,
// push, pop and popFresh, and compares the whole items array, key bits and
// ids, after every operation: pop computes its sift differently, and only
// an identical array is the same plan. Keys are drawn from a few values —
// ties everywhere — with ±Inf and −0 among them; a NaN key (a 0/0 cost, since
// Validate allows Freq == 0) joins them from the start, or never, or from a
// random step on in scripts that push more and heapify only once, so that
// it arrives by push alone and later pushes grow the heap below it: both
// pop paths and the switch between them are covered.
func TestLazyHeapArraysMatchContainerHeap(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 0.25, 1, 3, math.Inf(1), math.Inf(-1)}
	same := func(a, b []heapItem) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].id != b[i].id || math.Float64bits(a[i].key) != math.Float64bits(b[i].key) {
				return false
			}
		}
		return true
	}
	for seed := uint64(1); seed <= 60; seed++ {
		s := rng.New(seed)
		nanFrom, pushes, ops := math.MaxInt, 2, 10 // never; r < ops picks the operation below
		switch seed % 3 {
		case 1:
			nanFrom = 0
		case 2:
			nanFrom, pushes, ops = s.IntN(200), 4, 9
		}
		var cur []float64
		var valid []bool
		step := 0
		draw := func() float64 {
			if step >= nanFrom && s.Bool(0.1) {
				return math.NaN()
			}
			return pool[s.IntN(len(pool))]
		}
		fresh := func() heapItem {
			id := int64(len(cur))
			cur, valid = append(cur, draw()), append(valid, true)
			return heapItem{key: cur[id], id: id}
		}
		got := &lazyHeap{}
		var want stdHeap
		for range 1 + s.IntN(300) {
			it := fresh()
			got.items, want = append(got.items, it), append(want, it)
		}
		got.heapify()
		heap.Init(&want)
		recompute := func(id int64) (float64, bool) { return cur[id], valid[id] }
		for ; step < 400; step++ {
			var op string
			switch r := s.IntN(ops); {
			case r < pushes:
				op = "push"
				it := fresh()
				got.push(it)
				heap.Push(&want, it)
			case r < pushes+2:
				op = "pop"
				gi, gok := got.pop()
				var wi heapItem
				wok := want.Len() > 0
				if wok {
					wi = heap.Pop(&want).(heapItem)
				}
				if gi != wi && !(gi.id == wi.id && math.IsNaN(gi.key) && math.IsNaN(wi.key)) || gok != wok {
					t.Fatalf("seed %d step %d: pop = (%v, %v), container/heap gives (%v, %v)", seed, step, gi, gok, wi, wok)
				}
			case r < 9:
				op = "popFresh"
				gi, gk, gok := got.popFresh(recompute)
				wi, wk, wok := want.popFresh(recompute)
				if gi != wi || math.Float64bits(gk) != math.Float64bits(wk) || gok != wok {
					t.Fatalf("seed %d step %d: popFresh = (%d, %v, %v), container/heap gives (%d, %v, %v)",
						seed, step, gi, gk, gok, wi, wk, wok)
				}
			default:
				op = "heapify"
				for range s.IntN(40) {
					it := fresh()
					got.items, want = append(got.items, it), append(want, it)
				}
				got.heapify()
				heap.Init(&want)
			}
			if !same(got.items, want) {
				t.Fatalf("seed %d step %d: after %s the array is\n%v\ncontainer/heap leaves\n%v", seed, step, op, got.items, []heapItem(want))
			}
			// The mutation a greedy step causes: some keys go stale, some
			// candidates stop being valid.
			for m := s.IntN(6); m > 0; m-- {
				cur[s.IntN(len(cur))] = draw()
			}
			if s.Bool(0.2) {
				valid[s.IntN(len(valid))] = false
			}
		}
	}
}
