package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"farmer/internal/trace"
)

func TestAccessMissThenHit(t *testing.T) {
	c := NewLRU(4)
	if c.Access(1) {
		t.Fatal("first access should miss")
	}
	if !c.Access(1) {
		t.Fatal("second access should hit")
	}
	m := c.Metrics()
	if m.Lookups != 2 || m.Hits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := m.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // refresh 1; LRU is now 2
	c.Access(3) // evicts 2
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("1 and 3 should be resident")
	}
	if c.Metrics().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Metrics().Evictions)
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	c := NewLRU(4)
	if !c.Prefetch(7) {
		t.Fatal("prefetch insert failed")
	}
	if !c.Access(7) {
		t.Fatal("prefetched entry should hit")
	}
	m := c.Finish()
	if m.Prefetched != 1 || m.PrefetchUsed != 1 || m.PrefetchHits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.PrefetchAccuracy() != 1.0 {
		t.Fatalf("accuracy = %v, want 1", m.PrefetchAccuracy())
	}
	if m.PrefetchWasted != 0 {
		t.Fatalf("wasted = %d, want 0", m.PrefetchWasted)
	}
}

func TestPrefetchWasteOnEviction(t *testing.T) {
	c := NewLRU(2)
	c.Prefetch(1)
	c.Access(2)
	c.Access(3) // evicts 1 (prefetched, never used)
	m := c.Metrics()
	if m.PrefetchWasted != 1 {
		t.Fatalf("wasted = %d, want 1", m.PrefetchWasted)
	}
	if m.PrefetchAccuracy() != 0 {
		t.Fatalf("accuracy = %v, want 0", m.PrefetchAccuracy())
	}
}

func TestPrefetchWasteAtFinish(t *testing.T) {
	c := NewLRU(4)
	c.Prefetch(1)
	c.Prefetch(2)
	c.Access(1)
	m := c.Finish()
	if m.PrefetchUsed != 1 || m.PrefetchWasted != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := m.PrefetchAccuracy(); got != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", got)
	}
}

func TestPrefetchExistingIsNoop(t *testing.T) {
	c := NewLRU(4)
	c.Access(1)
	if c.Prefetch(1) {
		t.Fatal("prefetch of resident entry should be a no-op")
	}
	if c.Metrics().Prefetched != 0 {
		t.Fatal("no-op prefetch counted")
	}
}

func TestPrefetchDoesNotRefreshRecency(t *testing.T) {
	c := NewLRU(2)
	c.Access(1)
	c.Access(2)
	c.Prefetch(1) // must not move 1 to front
	c.Access(3)   // evicts 1, the LRU entry
	if c.Contains(1) {
		t.Fatal("prefetch refreshed recency")
	}
}

func TestPrefetchedHitCountsOncePerEntry(t *testing.T) {
	c := NewLRU(4)
	c.Prefetch(1)
	c.Access(1)
	c.Access(1)
	m := c.Metrics()
	if m.PrefetchUsed != 1 || m.PrefetchHits != 1 {
		t.Fatalf("double-counted prefetch use: %+v", m)
	}
	if m.Hits != 2 {
		t.Fatalf("hits = %d, want 2", m.Hits)
	}
}

func TestCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewLRU(0)
}

func TestLenAndCapacity(t *testing.T) {
	c := NewLRU(3)
	for f := trace.FileID(0); f < 10; f++ {
		c.Access(f)
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len=%d after ten accesses at capacity 3", c.ll.Len())
	}
}

// Property: residency count never exceeds capacity, and the conservation law
// Prefetched = PrefetchUsed + PrefetchWasted holds after Finish.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, capSel uint8, ops uint16) bool {
		capacity := int(capSel%31) + 1
		c := NewLRU(capacity)
		rng := rand.New(rand.NewPCG(seed, 3))
		for i := 0; i < int(ops); i++ {
			file := trace.FileID(rng.IntN(capacity * 3))
			if rng.IntN(2) == 0 {
				c.Access(file)
			} else {
				c.Prefetch(file)
			}
			if c.ll.Len() > capacity {
				return false
			}
		}
		m := c.Finish()
		return m.Prefetched == m.PrefetchUsed+m.PrefetchWasted && m.PrefetchHits == m.PrefetchUsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits never exceed lookups and prefetch hits never exceed hits.
func TestMetricBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := NewLRU(8)
		rng := rand.New(rand.NewPCG(seed, 4))
		for i := 0; i < 500; i++ {
			file := trace.FileID(rng.IntN(24))
			if rng.IntN(2) == 0 {
				c.Access(file)
			} else {
				c.Prefetch(file)
			}
		}
		m := c.Metrics()
		return m.Hits <= m.Lookups && m.PrefetchHits <= m.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMetrics(t *testing.T) {
	var m Metrics
	if m.HitRatio() != 0 || m.PrefetchAccuracy() != 0 {
		t.Fatal("zero-division not guarded")
	}
}
