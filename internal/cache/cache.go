// Package cache provides the metadata cache used by the simulated MDS: an
// LRU replacement cache whose entries remember whether they were inserted on
// demand or by prefetching, so experiments can report cache hit ratio and
// prefetching accuracy (the fraction of prefetched entries that were used
// before eviction — the paper's Table 3 metric).
package cache

import (
	"container/list"

	"farmer/internal/trace"
)

// Source records how an entry entered the cache.
type Source uint8

// Entry sources.
const (
	SourceDemand Source = iota
	SourcePrefetch
)

type entry struct {
	file   trace.FileID
	source Source
	used   bool // a prefetched entry becomes used on its first demand hit
}

// Metrics aggregates cache behaviour over a run.
type Metrics struct {
	Lookups        uint64 // demand lookups
	Hits           uint64 // demand hits (any source)
	PrefetchHits   uint64 // demand hits on not-yet-used prefetched entries
	Prefetched     uint64 // prefetch insertions (excluding already-cached)
	PrefetchUsed   uint64 // prefetched entries that served >= 1 demand hit
	PrefetchWasted uint64 // prefetched entries evicted (or still resident at
	// Finish) without ever serving a hit
	Evictions uint64
}

// HitRatio is demand hits / demand lookups.
func (m Metrics) HitRatio() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Lookups)
}

// PrefetchAccuracy is used prefetches / issued prefetches (Table 3).
func (m Metrics) PrefetchAccuracy() float64 {
	if m.Prefetched == 0 {
		return 0
	}
	return float64(m.PrefetchUsed) / float64(m.Prefetched)
}

// LRU is a fixed-capacity least-recently-used cache over file ids. It is not
// safe for concurrent use; the DES-driven MDS is single-threaded.
type LRU struct {
	capacity int
	ll       *list.List // front = most recent
	items    map[trace.FileID]*list.Element
	m        Metrics
}

// NewLRU creates a cache holding up to capacity entries; capacity must be
// positive.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[trace.FileID]*list.Element, capacity),
	}
}

// Len returns the resident entry count.
func (c *LRU) Len() int { return c.ll.Len() }

// Contains reports residency without touching recency or metrics.
func (c *LRU) Contains(f trace.FileID) bool {
	_, ok := c.items[f]
	return ok
}

// Access performs a demand lookup: on a hit the entry is refreshed and true
// is returned; on a miss the entry is inserted as a demand entry (evicting
// LRU if needed) and false is returned.
func (c *LRU) Access(f trace.FileID) bool {
	c.m.Lookups++
	if el, ok := c.items[f]; ok {
		c.m.Hits++
		e := el.Value.(*entry)
		if e.source == SourcePrefetch && !e.used {
			e.used = true
			c.m.PrefetchHits++
			c.m.PrefetchUsed++
		}
		c.ll.MoveToFront(el)
		return true
	}
	c.insert(f, SourceDemand)
	return false
}

// Prefetch inserts f as a prefetched entry. If f is already resident the
// call is a no-op (it does not refresh recency: prefetching must not protect
// stale entries). It returns true when a new entry was inserted.
func (c *LRU) Prefetch(f trace.FileID) bool {
	if _, ok := c.items[f]; ok {
		return false
	}
	c.m.Prefetched++
	c.insert(f, SourcePrefetch)
	return true
}

func (c *LRU) insert(f trace.FileID, src Source) {
	for c.ll.Len() >= c.capacity {
		c.evictOldest()
	}
	el := c.ll.PushFront(&entry{file: f, source: src})
	c.items[f] = el
}

func (c *LRU) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.file)
	c.m.Evictions++
	if e.source == SourcePrefetch && !e.used {
		c.m.PrefetchWasted++
	}
}

// Finish folds still-resident never-used prefetched entries into the wasted
// count and returns the final metrics. The cache remains usable.
func (c *LRU) Finish() Metrics {
	m := c.m
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.source == SourcePrefetch && !e.used {
			m.PrefetchWasted++
		}
	}
	return m
}

// Metrics returns a snapshot of the running metrics (without the Finish
// residual-waste fold).
func (c *LRU) Metrics() Metrics { return c.m }
