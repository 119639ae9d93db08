package sim

import (
	"testing"
	"time"
)

// TestServerCompletionStats distinguishes dispatch (the served count AvgWait
// divides by) from completion (Completed): mid-service the two differ by exactly the in-flight count,
// and they converge when the engine drains.
func TestServerCompletionStats(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
	for i := 0; i < 4; i++ {
		s.Submit(PriorityDemand, &Request{Service: 10 * time.Millisecond})
	}
	s.Submit(PriorityPrefetch, &Request{Service: 10 * time.Millisecond})

	// At t=0 two demands are in service, none complete.
	if got := s.served[PriorityDemand]; got != 2 {
		t.Fatalf("served(demand) = %d at t=0, want 2", got)
	}
	if got := s.Completed(PriorityDemand); got != 0 {
		t.Fatalf("completed(demand) = %d at t=0, want 0", got)
	}

	// Scheduled after the first two completions, so at t=10ms it runs after them.
	e.At(10*time.Millisecond, func() {
		if got := s.Completed(PriorityDemand); got != 2 {
			t.Errorf("completed(demand) = %d at t=10ms, want 2", got)
		}
		if got := s.Completed(PriorityPrefetch); got != 0 {
			t.Errorf("completed(prefetch) = %d at t=10ms, want 0 (demand runs first)", got)
		}
	})
	e.Run()
	if got := s.Completed(PriorityDemand); got != 4 {
		t.Fatalf("completed(demand) = %d, want 4", got)
	}
	if got := s.Completed(PriorityPrefetch); got != 1 {
		t.Fatalf("completed(prefetch) = %d, want 1", got)
	}
	if s.served != s.completed {
		t.Fatal("served and completed diverge after drain")
	}
}

// TestServerDemandPreemptsPrefetchCompletions replays a contended mix and
// asserts preemption through the completion counters: every demand request
// completes before any queued prefetch is allowed to finish.
func TestServerDemandPreemptsPrefetchCompletions(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	var firstPrefetchDone time.Duration = -1
	var lastDemandDone time.Duration
	// Occupy the worker, then interleave queued prefetches and demands.
	s.Submit(PriorityDemand, &Request{Service: time.Millisecond,
		Done: func(_, _ time.Duration) { lastDemandDone = e.Now() }})
	for i := 0; i < 3; i++ {
		s.Submit(PriorityPrefetch, &Request{Service: time.Millisecond,
			Done: func(_, _ time.Duration) {
				if firstPrefetchDone < 0 {
					firstPrefetchDone = e.Now()
				}
			}})
		s.Submit(PriorityDemand, &Request{Service: time.Millisecond,
			Done: func(_, _ time.Duration) { lastDemandDone = e.Now() }})
	}
	e.Run()
	if s.Completed(PriorityDemand) != 4 || s.Completed(PriorityPrefetch) != 3 {
		t.Fatalf("completions = %d demand / %d prefetch, want 4/3",
			s.Completed(PriorityDemand), s.Completed(PriorityPrefetch))
	}
	if firstPrefetchDone <= lastDemandDone {
		t.Fatalf("prefetch completed at %v before last demand at %v",
			firstPrefetchDone, lastDemandDone)
	}
}

// TestServerQueueLimitDropsOldest bounds the prefetch queue and checks that
// overflow evicts the oldest queued prefetch (whose Done never runs) while
// demand requests are untouched.
func TestServerQueueLimitDropsOldest(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	s.LimitQueue(PriorityPrefetch, 2)

	var served []int
	// Fill the worker so everything else queues.
	s.Submit(PriorityDemand, &Request{Service: 10 * time.Millisecond})
	for i := 0; i < 5; i++ {
		id := i
		s.Submit(PriorityPrefetch, &Request{
			Service: time.Millisecond,
			Done:    func(_, _ time.Duration) { served = append(served, id) },
		})
	}
	e.Run()

	if got := s.Dropped(PriorityPrefetch); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := s.Dropped(PriorityDemand); got != 0 {
		t.Fatalf("demand dropped = %d, want 0", got)
	}
	// Drop-oldest keeps the two newest prefetches.
	if len(served) != 2 || served[0] != 3 || served[1] != 4 {
		t.Fatalf("served prefetches %v, want [3 4]", served)
	}
	if got := s.Completed(PriorityPrefetch); got != 2 {
		t.Fatalf("completed(prefetch) = %d, want 2", got)
	}
	// Conservation: submitted = completed + dropped once drained.
	if s.Completed(PriorityPrefetch)+s.Dropped(PriorityPrefetch) != 5 {
		t.Fatal("prefetch accounting does not balance")
	}
}

// TestServerQueueLimitUnboundedByDefault checks that without LimitQueue no
// request is ever dropped.
func TestServerQueueLimitUnboundedByDefault(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	for i := 0; i < 100; i++ {
		s.Submit(PriorityPrefetch, &Request{Service: time.Microsecond})
	}
	e.Run()
	if s.Dropped(PriorityPrefetch) != 0 {
		t.Fatalf("dropped = %d without a limit", s.Dropped(PriorityPrefetch))
	}
	if s.Completed(PriorityPrefetch) != 100 {
		t.Fatalf("completed = %d, want 100", s.Completed(PriorityPrefetch))
	}
}

// TestServerServiceFnPricedAtDispatch checks that ServiceFn requests are
// priced when they enter service, not when submitted.
func TestServerServiceFnPricedAtDispatch(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	price := time.Millisecond
	s.Submit(PriorityDemand, &Request{Service: 10 * time.Millisecond})
	s.Submit(PriorityDemand, &Request{
		Service:   time.Hour, // must be ignored
		ServiceFn: func() time.Duration { return price },
	})
	price = 2 * time.Millisecond // repriced while queued
	e.Run()
	if got, want := e.Now(), 12*time.Millisecond; got != want {
		t.Fatalf("drained at %v, want %v (ServiceFn read at dispatch)", got, want)
	}
}
