// Package lru provides the small bounded LRU cache behind the fleet
// daemon's shared content-addressed artifact store (internal/store), its
// one consumer: a real least-recently-used policy keeps the fleet's hot
// netlists resident and evicts only the one-shot submissions, and the
// counters exported through Stats are what decide the store's capacity.
//
// The cache is internally locked and safe for concurrent use. The store
// still holds its own mutex across its get-miss-build-add sequence (the
// lock here cannot make a compound sequence atomic); what the internal
// lock buys is that a caller without compound sequences cannot corrupt
// the recency list by racing Get promotions against Add evictions.
package lru

import "sync"

// Stats is a point-in-time snapshot of a cache's effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
}

// entry is one node of the intrusive recency list. The list is circular
// with a sentinel root: root.next is the most recently used entry,
// root.prev the least.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// Cache is a fixed-capacity map with least-recently-used eviction,
// safe for concurrent use. The zero value is not usable; construct
// with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*entry[K, V]
	root     entry[K, V] // sentinel of the circular recency list

	hits, misses, evictions uint64
}

// New returns an empty cache that holds at most capacity entries.
// capacity must be positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	c := &Cache[K, V]{
		capacity: capacity,
		m:        make(map[K]*entry[K, V], capacity),
	}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}

// Get returns the value for k, promoting it to most recently used. The
// miss counter advances on lookup failure.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		c.hits++
		c.unlink(e)
		c.pushFront(e)
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value for k without promoting it and without
// touching the hit/miss counters — a residency probe, not a use.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Add inserts or updates k, making it the most recently used entry and
// evicting the least recently used one if the cache is over capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.val = v
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.m) >= c.capacity {
		lru := c.root.prev
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions++
	}
	e := &entry[K, V]{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
}

// Stats snapshots the effectiveness counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: len(c.m)}
}
