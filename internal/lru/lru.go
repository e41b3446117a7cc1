// Package lru implements a byte-capacity LRU cache over integer keys — the
// substrate for the paper's "ideal LRU caching/redirection" baseline, which
// caches multimedia objects at each local site and evicts by recency when
// the storage budget is exceeded.
package lru

import "fmt"

// node is a doubly-linked-list entry; the list is maintained in recency
// order with the most recently used item at the head.
type node struct {
	key        int
	size       int64
	prev, next *node
}

// Cache is a byte-capacity LRU cache. The zero value is not usable; call
// New. Not safe for concurrent use.
type Cache struct {
	capacity int64
	used     int64
	items    map[int]*node
	head     *node // most recently used
	tail     *node // least recently used
	free     *node // removed nodes awaiting reuse, linked through next
	evicted  []int // Put's result buffer

	hits, misses int64
	evictions    int64
}

// New returns a cache holding at most capacity bytes. Capacity zero is
// legal (every Put of a non-empty item evicts it immediately).
func New(capacity int64) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("lru: negative capacity %d", capacity)
	}
	return &Cache{capacity: capacity, items: make(map[int]*node)}, nil
}

// Bytes returns the bytes currently held.
func (c *Cache) Bytes() int64 { return c.used }

// Len returns the number of cached items.
func (c *Cache) Len() int { return len(c.items) }

// Hits and Misses return the Access counters; Evictions counts evicted
// items.
func (c *Cache) Hits() int64      { return c.hits }
func (c *Cache) Misses() int64    { return c.misses }
func (c *Cache) Evictions() int64 { return c.evictions }

// detach removes n from the recency list.
func (c *Cache) detach(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront inserts n at the head (most recently used).
func (c *Cache) pushFront(n *node) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Access records a use of key: on a hit the item moves to the front and
// Access returns true; on a miss it returns false (the caller decides
// whether to Put). Hit/miss counters update either way.
func (c *Cache) Access(key int) bool {
	n, ok := c.items[key]
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	c.detach(n)
	c.pushFront(n)
	return true
}

// Put inserts (or refreshes) key with the given size at the front, evicting
// least-recently-used items until the cache fits. It returns the evicted
// keys in a buffer the cache reuses: the slice is valid until the next Put.
// An item larger than the whole capacity is not cached (it would evict
// everything for nothing) and is reported as the single "evicted" key.
// Sizes must be non-negative. A cache at capacity allocates nothing per
// Put: an insert reuses a node an eviction freed.
func (c *Cache) Put(key int, size int64) (evicted []int) {
	if size < 0 {
		panic(fmt.Sprintf("lru: negative size %d for key %d", size, key))
	}
	c.evicted = c.evicted[:0]
	if n, ok := c.items[key]; ok {
		c.used += size - n.size
		n.size = size
		c.detach(n)
		c.pushFront(n)
	} else if size > c.capacity {
		c.evicted = append(c.evicted, key)
		return c.evicted
	} else {
		n := c.free
		if n == nil {
			n = &node{}
		}
		c.free = n.next
		*n = node{key: key, size: size}
		c.items[key] = n
		c.pushFront(n)
		c.used += size
	}
	for c.used > c.capacity && c.tail != nil {
		victim := c.tail.key
		c.remove(c.tail)
		c.evicted = append(c.evicted, victim)
		if victim == key {
			break // the refreshed item itself no longer fits
		}
	}
	c.evictions += int64(len(c.evicted))
	return c.evicted
}

// remove detaches and deletes n (an eviction), and keeps the node for the
// next insert.
func (c *Cache) remove(n *node) {
	c.detach(n)
	delete(c.items, n.key)
	c.used -= n.size
	n.next, c.free = c.free, n
}

// checkInvariants verifies list/map/byte consistency (test helper).
func (c *Cache) checkInvariants() error {
	var bytes int64
	count := 0
	var prev *node
	for n := c.head; n != nil; n = n.next {
		if n.prev != prev {
			return fmt.Errorf("lru: broken prev link at key %d", n.key)
		}
		if m, ok := c.items[n.key]; !ok || m != n {
			return fmt.Errorf("lru: list node %d not in map", n.key)
		}
		bytes += n.size
		count++
		prev = n
	}
	if c.tail != prev {
		return fmt.Errorf("lru: tail mismatch")
	}
	if count != len(c.items) {
		return fmt.Errorf("lru: list has %d nodes, map has %d", count, len(c.items))
	}
	if bytes != c.used {
		return fmt.Errorf("lru: bytes %d != used %d", bytes, c.used)
	}
	if c.used > c.capacity {
		return fmt.Errorf("lru: used %d exceeds capacity %d", c.used, c.capacity)
	}
	return nil
}
