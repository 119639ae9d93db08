// Package sim provides a small deterministic discrete-event simulation
// engine used by the HUSt storage-system model. Time is virtual and measured
// in nanoseconds (time.Duration); events are executed in non-decreasing
// timestamp order with FIFO tie-breaking, so a simulation driven by a fixed
// seed is fully reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// event is a scheduled callback. The callback runs with the engine clock set
// to the event time.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulation driver. The zero value is ready to
// use. Engine is not safe for concurrent use; a simulation is a single
// logical thread over virtual time.
type Engine struct {
	now    time.Duration
	next   uint64
	events eventHeap
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	heap.Push(&e.events, &event{at: t, seq: e.next, fn: fn})
	e.next++
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
	}
}
