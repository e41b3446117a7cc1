package lru

import (
	"container/list"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// testKeys bounds the keys every test cache is built for.
const testKeys = 256

func mustNew(t *testing.T, cap int64) *Cache {
	t.Helper()
	c, err := New(cap, testKeys)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// has reports whether key is cached, without touching recency.
func has(c *Cache, key int) bool { return c.slots[key].prev != absent }

// keys returns the cached keys from most to least recently used.
func keys(c *Cache) []int {
	var out []int
	for i := c.slots[c.root].next; i != c.root; i = c.slots[i].next {
		out = append(out, int(i))
	}
	return out
}

// checkInvariants verifies ring/slot/byte consistency.
func (c *Cache) checkInvariants() error {
	var bytes int64
	count := 0
	prev := c.root
	for i := c.slots[c.root].next; i != c.root; i = c.slots[i].next {
		if c.slots[i].prev != prev {
			return fmt.Errorf("lru: broken prev link at key %d", i)
		}
		bytes += c.slots[i].size
		count++
		prev = i
	}
	if c.slots[c.root].prev != prev {
		return fmt.Errorf("lru: tail mismatch")
	}
	cached := 0
	for _, e := range c.slots[:c.root] {
		if e.prev != absent {
			cached++
		}
	}
	if count != c.n || cached != c.n {
		return fmt.Errorf("lru: list has %d items, %d slots are cached, Len is %d", count, cached, c.n)
	}
	if bytes != c.used {
		return fmt.Errorf("lru: bytes %d != used %d", bytes, c.used)
	}
	if c.used > c.capacity {
		return fmt.Errorf("lru: used %d exceeds capacity %d", c.used, c.capacity)
	}
	return nil
}

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestNewRejectsKeyBound(t *testing.T) {
	for _, keys := range []int{-1, math.MaxInt32 + 1} {
		if _, err := New(1, keys); err == nil {
			t.Errorf("key bound %d accepted", keys)
		}
	}
}

func TestBasicPutAccess(t *testing.T) {
	c := mustNew(t, 100)
	if c.Access(1) {
		t.Error("hit on empty cache")
	}
	if ev := c.Put(1, 40); len(ev) != 0 {
		t.Errorf("unexpected evictions %v", ev)
	}
	if !c.Access(1) {
		t.Error("miss after Put")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("counters hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Errorf("bytes=%d len=%d", c.Bytes(), c.Len())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := mustNew(t, 100)
	c.Put(1, 40)
	c.Put(2, 40)
	c.Access(1)        // 1 is now MRU
	ev := c.Put(3, 40) // must evict 2 (LRU), not 1
	if len(ev) != 1 || ev[0] != 2 {
		t.Errorf("evicted %v, want [2]", ev)
	}
	if !has(c, 1) || !has(c, 3) || has(c, 2) {
		t.Error("wrong survivors")
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d", c.Evictions())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictMultiple(t *testing.T) {
	c := mustNew(t, 100)
	c.Put(1, 30)
	c.Put(2, 30)
	c.Put(3, 30)
	ev := c.Put(4, 90) // evicts 1, 2, 3
	if len(ev) != 3 {
		t.Errorf("evicted %v", ev)
	}
	if c.Len() != 1 || !has(c, 4) {
		t.Error("only key 4 should remain")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedItemNotCached(t *testing.T) {
	c := mustNew(t, 50)
	c.Put(1, 40)
	ev := c.Put(2, 60)
	if len(ev) != 1 || ev[0] != 2 {
		t.Errorf("oversized put evicted %v, want itself", ev)
	}
	if !has(c, 1) || has(c, 2) {
		t.Error("oversized item displaced the cache")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshResize(t *testing.T) {
	c := mustNew(t, 100)
	c.Put(1, 40)
	c.Put(2, 40)
	c.Put(1, 70) // grow key 1; 40+70 > 100 → evict 2
	if has(c, 2) {
		t.Error("refresh did not evict to fit")
	}
	if c.Bytes() != 70 {
		t.Errorf("bytes = %d", c.Bytes())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshBeyondCapacityDropsSelf(t *testing.T) {
	c := mustNew(t, 50)
	c.Put(1, 40)
	ev := c.Put(1, 80) // refreshed beyond capacity
	found := false
	for _, k := range ev {
		if k == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("refresh-beyond-capacity evicted %v, want to include 1", ev)
	}
	if has(c, 1) || c.Bytes() != 0 {
		t.Errorf("cache should be empty, bytes=%d", c.Bytes())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCapacity(t *testing.T) {
	c := mustNew(t, 0)
	ev := c.Put(1, 1)
	if len(ev) != 1 || has(c, 1) {
		t.Error("zero-capacity cache retained an item")
	}
	ev = c.Put(2, 0) // zero-size item fits in zero capacity
	if len(ev) != 0 || !has(c, 2) {
		t.Error("zero-size item should fit")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKeysOrder(t *testing.T) {
	c := mustNew(t, 100)
	c.Put(1, 10)
	c.Put(2, 10)
	c.Put(3, 10)
	c.Access(1)
	got := keys(c)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Errorf("recency order = %v, want [1 3 2]", got)
	}
}

func TestPanicOnNegativeSize(t *testing.T) {
	c := mustNew(t, 10)
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	c.Put(1, -5)
}

func TestPanicOnKeyOutOfRange(t *testing.T) {
	for _, key := range []int{-1, testKeys} {
		for name, op := range map[string]func(c *Cache){
			"Put":    func(c *Cache) { c.Put(key, 1) },
			"Access": func(c *Cache) { c.Access(key) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of key %d did not panic", name, key)
					}
				}()
				op(mustNew(t, 10))
			}()
		}
	}
}

// Property test: after any operation sequence the invariants hold and the
// byte usage never exceeds capacity.
func TestCacheProperties(t *testing.T) {
	type op struct {
		Key  uint8
		Size uint8
		Kind uint8 // even put, odd access
	}
	f := func(capacity uint16, ops []op) bool {
		c, err := New(int64(capacity), 256) // every uint8 key
		if err != nil {
			return false
		}
		for _, o := range ops {
			if o.Kind%2 == 0 {
				c.Put(int(o.Key), int64(o.Size))
			} else {
				c.Access(int(o.Key))
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPutEvictingAllocatesNothing: a cache at capacity evicts and inserts
// within the slots New allocated and returns the evicted key in its own
// buffer.
func TestPutEvictingAllocatesNothing(t *testing.T) {
	c := mustNew(t, 64*128)
	for i := 0; i < 256; i++ { // fill, and cycle the key range once
		c.Put(i%256, 128)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if ev := c.Put(i%256, 128); len(ev) != 1 {
			t.Fatalf("Put %d evicted %v, want exactly one key", i, ev)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state evicting Put allocates %v objects, want 0", allocs)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// refCache is the reference TestCacheMatchesReference holds Cache to: the
// same contract written the obvious way, a map into a container/list with
// the most recently used item at the front.
type refCache struct {
	capacity, used          int64
	order                   *list.List // of *refItem
	items                   map[int]*list.Element
	hits, misses, evictions int64
}

type refItem struct {
	key  int
	size int64
}

func (r *refCache) access(key int) bool {
	e, ok := r.items[key]
	if !ok {
		r.misses++
		return false
	}
	r.hits++
	r.order.MoveToFront(e)
	return true
}

func (r *refCache) put(key int, size int64) []int {
	evicted := []int{}
	if e, ok := r.items[key]; ok {
		it := e.Value.(*refItem)
		r.used += size - it.size
		it.size = size
		r.order.MoveToFront(e)
	} else if size > r.capacity {
		return []int{key} // not cached, and not counted as an eviction
	} else {
		r.items[key] = r.order.PushFront(&refItem{key, size})
		r.used += size
	}
	for r.used > r.capacity && r.order.Len() > 0 {
		it := r.order.Remove(r.order.Back()).(*refItem)
		delete(r.items, it.key)
		r.used -= it.size
		evicted = append(evicted, it.key)
		if it.key == key {
			break
		}
	}
	r.evictions += int64(len(evicted))
	return evicted
}

func (r *refCache) keys() []int {
	var out []int
	for e := r.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*refItem).key)
	}
	return out
}

// TestCacheMatchesReference drives Cache and refCache with the same seeded
// operations over keys in [0, 64) — sizes of zero, sizes above the
// capacity, refreshes that grow an item past what fits — and compares every
// result, every counter and the full recency order after each one.
func TestCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		capacity := int64(r.IntN(400))
		c := mustNew(t, capacity)
		ref := &refCache{capacity: capacity, order: list.New(), items: map[int]*list.Element{}}
		for op := 0; op < 2000; op++ {
			key := r.IntN(64)
			var size int64
			switch r.IntN(8) {
			case 0:
				size = 0
			case 1:
				size = capacity + 1 + int64(r.IntN(50))
			default:
				size = int64(r.IntN(int(capacity/4) + 2))
			}
			if r.IntN(2) == 0 {
				if got, want := c.Access(key), ref.access(key); got != want {
					t.Fatalf("seed %d op %d: Access(%d) = %v, want %v", seed, op, key, got, want)
				}
			} else {
				got, want := c.Put(key, size), ref.put(key, size)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Put(%d, %d) evicted %v, want %v", seed, op, key, size, got, want)
				}
			}
			if c.Len() != ref.order.Len() || c.Bytes() != ref.used || c.Hits() != ref.hits ||
				c.Misses() != ref.misses || c.Evictions() != ref.evictions {
				t.Fatalf("seed %d op %d: len=%d bytes=%d hits=%d misses=%d evictions=%d, want %d %d %d %d %d",
					seed, op, c.Len(), c.Bytes(), c.Hits(), c.Misses(), c.Evictions(),
					ref.order.Len(), ref.used, ref.hits, ref.misses, ref.evictions)
			}
			if got, want := keys(c), ref.keys(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: recency order %v, want %v", seed, op, got, want)
			}
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c, _ := New(1<<20, 1000)
	for i := 0; i < 1000; i++ {
		c.Put(i, 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(i % 1000)
	}
}

func BenchmarkPutEvict(b *testing.B) {
	const keys = 1 << 16
	c, _ := New(1<<10, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(i%keys, 128)
	}
}
