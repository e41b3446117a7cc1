// Package lru implements a byte-capacity LRU cache over dense integer keys —
// the substrate for the paper's "ideal LRU caching/redirection" baseline,
// which caches multimedia objects at each local site and evicts by recency
// when the storage budget is exceeded.
package lru

import (
	"fmt"
	"math"
)

// absent is the prev link of a key that is not cached.
const absent = -1

// entry is one key's slot in the recency list: a doubly-linked ring through
// the slots, with the root slot (index keys) between the least and the most
// recently used item.
type entry struct {
	prev, next int32
	size       int64
}

// Cache is a byte-capacity LRU cache over the keys [0, keys). The zero value
// is not usable; call New. Not safe for concurrent use.
type Cache struct {
	capacity int64
	used     int64
	n        int
	slots    []entry // one per key, then the root: next is the MRU, prev the LRU
	root     int32
	evicted  []int // Put's result buffer

	hits, misses int64
	evictions    int64
}

// New returns a cache holding at most capacity bytes of items keyed in
// [0, keys). Capacity zero is legal (every Put of a non-empty item evicts it
// immediately). New allocates every key's slot up front.
func New(capacity int64, keys int) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("lru: negative capacity %d", capacity)
	}
	if keys < 0 || keys > math.MaxInt32 {
		return nil, fmt.Errorf("lru: key bound %d outside [0, %d]", keys, math.MaxInt32)
	}
	c := &Cache{capacity: capacity, slots: make([]entry, keys+1), root: int32(keys)}
	for i := range c.slots[:keys] {
		c.slots[i].prev = absent
	}
	c.slots[keys] = entry{prev: c.root, next: c.root}
	return c, nil
}

// Bytes returns the bytes currently held.
func (c *Cache) Bytes() int64 { return c.used }

// Len returns the number of cached items.
func (c *Cache) Len() int { return c.n }

// Hits and Misses return the Access counters; Evictions counts evicted
// items.
func (c *Cache) Hits() int64      { return c.hits }
func (c *Cache) Misses() int64    { return c.misses }
func (c *Cache) Evictions() int64 { return c.evictions }

// slot returns key's index, panicking when key lies outside [0, keys).
func (c *Cache) slot(key int) int32 {
	if uint(key) >= uint(c.root) {
		panic(fmt.Sprintf("lru: key %d outside [0, %d)", key, c.root))
	}
	return int32(key)
}

// detach unlinks slot i from the recency list.
func (c *Cache) detach(i int32) {
	p, n := c.slots[i].prev, c.slots[i].next
	c.slots[p].next = n
	c.slots[n].prev = p
}

// pushFront links slot i in as the most recently used item.
func (c *Cache) pushFront(i int32) {
	head := c.slots[c.root].next
	c.slots[i].prev, c.slots[i].next = c.root, head
	c.slots[head].prev = i
	c.slots[c.root].next = i
}

// Access records a use of key: on a hit the item moves to the front and
// Access returns true; on a miss it returns false (the caller decides
// whether to Put). Hit/miss counters update either way.
func (c *Cache) Access(key int) bool {
	i := c.slot(key)
	if c.slots[i].prev == absent {
		c.misses++
		return false
	}
	c.hits++
	c.detach(i)
	c.pushFront(i)
	return true
}

// Put inserts (or refreshes) key with the given size at the front, evicting
// least-recently-used items until the cache fits. It returns the evicted
// keys in a buffer the cache reuses: the slice is valid until the next Put.
// An item larger than the whole capacity is not cached (it would evict
// everything for nothing) and is reported as the single "evicted" key; a
// refreshed item that no longer fits is evicted last, after every other.
// Sizes must be non-negative. Put allocates nothing once its buffer has
// grown to the longest eviction run.
func (c *Cache) Put(key int, size int64) (evicted []int) {
	if size < 0 {
		panic(fmt.Sprintf("lru: negative size %d for key %d", size, key))
	}
	i := c.slot(key)
	c.evicted = c.evicted[:0]
	e := &c.slots[i]
	switch {
	case e.prev != absent:
		c.used += size - e.size
		e.size = size
		c.detach(i)
	case size > c.capacity:
		c.evicted = append(c.evicted, key)
		return c.evicted
	default:
		e.size = size
		c.used += size
		c.n++
	}
	c.pushFront(i)
	for c.used > c.capacity { // so the cache holds an item of positive size
		victim := c.slots[c.root].prev
		c.detach(victim)
		c.slots[victim].prev = absent
		c.used -= c.slots[victim].size
		c.n--
		c.evicted = append(c.evicted, int(victim))
	}
	c.evictions += int64(len(c.evicted))
	return c.evicted
}
