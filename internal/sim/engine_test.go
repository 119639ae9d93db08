package sim

import (
	"testing"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := New()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestEngineAfterNested(t *testing.T) {
	e := New()
	var fired time.Duration
	e.After(5*time.Millisecond, func() {
		e.After(7*time.Millisecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	e.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(time.Millisecond, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestServerSingleWorkerFIFO(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		s.Submit(PriorityDemand, &Request{
			Service: 10 * time.Millisecond,
			Done:    func(wait, total time.Duration) { done = append(done, e.Now()) },
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if s.AvgWait(PriorityDemand) != 10*time.Millisecond {
		t.Fatalf("avg wait = %v, want 10ms", s.AvgWait(PriorityDemand))
	}
}

func TestServerDemandPreemptsPrefetchQueue(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	var order []string
	submit := func(pri int, name string) {
		s.Submit(pri, &Request{
			Service: 5 * time.Millisecond,
			Done:    func(wait, total time.Duration) { order = append(order, name) },
		})
	}
	// One request in service, then queue prefetch before demand; demand must
	// still be served next.
	submit(PriorityDemand, "first")
	submit(PriorityPrefetch, "pf1")
	submit(PriorityPrefetch, "pf2")
	submit(PriorityDemand, "urgent")
	e.Run()
	if order[0] != "first" || order[1] != "urgent" {
		t.Fatalf("priority order wrong: %v", order)
	}
	if order[2] != "pf1" || order[3] != "pf2" {
		t.Fatalf("prefetch order wrong: %v", order)
	}
}

func TestServerMultipleWorkers(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
	var last time.Duration
	for i := 0; i < 4; i++ {
		s.Submit(PriorityDemand, &Request{
			Service: 10 * time.Millisecond,
			Done:    func(wait, total time.Duration) { last = e.Now() },
		})
	}
	e.Run()
	if last != 20*time.Millisecond {
		t.Fatalf("4 jobs on 2 workers finished at %v, want 20ms", last)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	s.Submit(PriorityDemand, &Request{Service: 10 * time.Millisecond})
	e.At(20*time.Millisecond, func() {}) // idle until t=20ms
	e.Run()
	if u := s.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestServerStats(t *testing.T) {
	e := New()
	s := NewServer(e, 1)
	for i := 0; i < 5; i++ {
		s.Submit(PriorityPrefetch, &Request{Service: time.Millisecond})
	}
	e.Run()
	if s.Completed(PriorityPrefetch) != 5 || s.Dropped(PriorityPrefetch) != 0 {
		t.Fatalf("completed = %d, dropped = %d, want 5 and 0", s.Completed(PriorityPrefetch), s.Dropped(PriorityPrefetch))
	}
	// One worker, 1 ms each: the five wait 0..4 ms, 2 ms on average.
	if w := s.AvgWait(PriorityPrefetch); w != 2*time.Millisecond {
		t.Fatalf("average wait = %v, want 2ms", w)
	}
}
