package lru

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cap int64) *Cache {
	t.Helper()
	c, err := New(cap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// has reports whether key is cached, without touching recency.
func has(c *Cache, key int) bool {
	_, ok := c.items[key]
	return ok
}

// keys returns the cached keys from most to least recently used.
func keys(c *Cache) []int {
	var out []int
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative capacity accepted")
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

// Property test: after any operation sequence the invariants hold and the
// byte usage never exceeds capacity.
func TestCacheProperties(t *testing.T) {
	type op struct {
		Key  uint8
		Size uint8
		Kind uint8 // even put, odd access
	}
	f := func(capacity uint16, ops []op) bool {
		c, err := New(int64(capacity))
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

// TestPutEvictingAllocatesNothing: a cache at capacity recycles the evicted
// node for the insert and returns the evicted key in its own buffer.
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

func BenchmarkAccessHit(b *testing.B) {
	c, _ := New(1 << 20)
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
	c, _ := New(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(i, 128)
	}
}
