// Package prefetch hangs an asynchronous Predict/prefetch pipeline off the
// sharded miner's post-ingest hook (core.ShardedModel.SetIngestHook), so the
// metadata demand path never waits on prediction or prefetch I/O.
//
// Dataflow:
//
//	ingest (MDS demand path)            async (one goroutine)
//	────────────────────────            ──────────────────────────────
//	ShardedModel.Feed/FeedBatch         loop: hit accounting,
//	   │ post-ingest hook                     Predict(file, k),
//	   ▼ (never blocks)                       Sink.Prefetch per candidate
//	Queue (bounded, drop-oldest) ──────►      (e.g. MDS prefetch
//	                                           priority queue)
//
// Backpressure degrades prefetch coverage, never demand latency: when
// prediction or the sink (the prefetch I/O path) falls behind ingestion, the
// queue drops its oldest ingested records unpredicted. The loss is counted
// and surfaced through Stats.
package prefetch

import (
	"sync"
	"sync/atomic"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// Candidate is one prefetch the pipeline wants issued: fetch File because
// Trigger (ingest sequence Seq) was just accessed and File correlates.
type Candidate struct {
	Trigger trace.FileID
	File    trace.FileID
	Seq     uint64
}

// Sink receives prefetch submissions from the pipeline's goroutine
// (implementations need not be safe for concurrent use unless they are
// shared elsewhere).
type Sink interface {
	Prefetch(c Candidate)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(c Candidate)

// Prefetch implements Sink.
func (f SinkFunc) Prefetch(c Candidate) { f(c) }

// DefaultQueueCap bounds the queue when Config.QueueCap <= 0.
const DefaultQueueCap = 1024

// event is one ingested record the pipeline has yet to predict from.
type event struct {
	seq  uint64
	file trace.FileID
}

// Queue is a bounded FIFO of ingested records with drop-oldest overflow: a
// full queue evicts (and counts) its oldest record rather than ever blocking
// the producer. It is safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	buf      []event // ring buffer
	head, n  int
	closed   bool
	dropped  uint64
}

// NewQueue creates a queue holding up to capacity records (DefaultQueueCap
// when <= 0).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	q := &Queue{buf: make([]event, capacity)}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// Push appends record seq of file f, evicting the oldest queued record when
// full. After Close it discards the record uncounted.
func (q *Queue) Push(seq uint64, f trace.FileID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped++
	}
	q.buf[(q.head+q.n)%len(q.buf)] = event{seq, f}
	q.n++
	q.nonEmpty.Signal()
}

// PopWait blocks until a record is available or the queue is closed and
// empty (ok false — queued records remain poppable after Close).
func (q *Queue) PopWait() (seq uint64, f trace.FileID, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.n == 0 {
		return 0, 0, false
	}
	ev := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return ev.seq, ev.file, true
}

// Close stops accepting pushes and wakes a blocked PopWait once the queue
// drains. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// Len reports how many records are queued right now.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Dropped reports how many records were evicted by overflow.
func (q *Queue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Config tunes a Pipeline.
type Config struct {
	// K is the prefetch degree: candidates predicted per ingested record.
	// Default 4.
	K int
	// QueueCap bounds the queue of ingested records (DefaultQueueCap when
	// <= 0).
	QueueCap int
}

// Stats is a snapshot of pipeline throughput and loss accounting. The
// conservation law Events + Dropped == records ingested while attached holds
// exactly after Stop, which drains the queue. Every predicted candidate is
// delivered to the sink.
type Stats struct {
	Events    uint64 // ingested records the pipeline predicted from
	Dropped   uint64 // ingested records the full queue evicted unpredicted
	Predicted uint64 // candidates produced by Predict and delivered to the sink
	Hits      uint64 // predictions later confirmed by an ingested record
}

// Accuracy is the observed prediction hit rate: the fraction of issued
// predictions whose file was accessed (ingested) while still inside the
// pipeline's recently-predicted window. 0 when nothing was predicted.
func (s Stats) Accuracy() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Predicted)
}

// hitWindow bounds the recently-predicted set the hit/accuracy accounting
// checks ingested records against: a prediction counts as a hit only if its
// file is accessed before hitWindow newer predictions evict it — a rolling
// stand-in for "was the prefetch still resident when the access came".
const hitWindow = 4096

// hitTracker is the bounded recently-predicted set: a map from each
// predicted file to the ring position of its prediction, and the ring of the
// last hitWindow predictions. Only the pipeline's goroutine touches it.
type hitTracker struct {
	set  map[trace.FileID]int
	ring [hitWindow]trace.FileID
	n    int // ring entries written (head = n % hitWindow)
}

// add records a fresh prediction, evicting the oldest once the window is
// full. A file predicted again while pending keeps its first position. The
// evicted slot's file leaves the set only if the set still points at that
// slot: a file hit and predicted again since owns a newer one.
func (h *hitTracker) add(f trace.FileID) {
	if h.set == nil {
		h.set = make(map[trace.FileID]int, hitWindow)
	}
	if _, dup := h.set[f]; dup {
		return
	}
	slot := h.n % hitWindow
	if h.n >= hitWindow {
		if old := h.ring[slot]; h.set[old] == h.n-hitWindow {
			delete(h.set, old)
		}
	}
	h.ring[slot] = f
	h.set[f] = h.n
	h.n++
}

// take reports whether f was recently predicted, consuming the entry (one
// access confirms one prediction).
func (h *hitTracker) take(f trace.FileID) bool {
	_, ok := h.set[f]
	if ok {
		delete(h.set, f)
	}
	return ok
}

// Pipeline is the running async prefetcher: the model's ingest hook pushes
// every ingested record onto a bounded Queue, and one goroutine pops each,
// predicts from it and feeds the sink. Create with Start, end with Stop.
type Pipeline struct {
	model *core.ShardedModel
	sink  Sink
	k     int
	q     *Queue
	done  chan struct{}

	stopOnce sync.Once

	events    atomic.Uint64
	predicted atomic.Uint64
	hits      atomic.Uint64
	ht        hitTracker
}

// Start sets the model's ingest hook and launches the pipeline's goroutine.
// A model feeds one pipeline at a time: Start replaces any hook already set.
// The sink receives candidates until Stop; a nil sink discards them (the
// pipeline still predicts and accounts — useful for measurement runs).
func Start(m *core.ShardedModel, sink Sink, cfg Config) *Pipeline {
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if sink == nil {
		sink = SinkFunc(func(Candidate) {})
	}
	p := &Pipeline{model: m, sink: sink, k: cfg.K, q: NewQueue(cfg.QueueCap), done: make(chan struct{})}
	m.SetIngestHook(p.q.Push)
	go p.loop()
	return p
}

// loop is the pipeline's one goroutine. Hit accounting comes first: an
// ingested record confirms (at most) one earlier prediction of its file
// before its own predictions enter the window.
func (p *Pipeline) loop() {
	defer close(p.done)
	for {
		seq, f, ok := p.q.PopWait()
		if !ok {
			return
		}
		p.events.Add(1)
		if p.ht.take(f) {
			p.hits.Add(1)
		}
		for _, c := range p.model.Predict(f, p.k) {
			p.ht.add(c)
			p.sink.Prefetch(Candidate{Trigger: f, File: c, Seq: seq})
			p.predicted.Add(1)
		}
	}
}

// Stop detaches the pipeline from the model, lets the goroutine predict from
// every record still queued, and returns once it has. Idempotent.
func (p *Pipeline) Stop() {
	p.stopOnce.Do(func() {
		p.model.SetIngestHook(nil)
		p.q.Close()
		<-p.done
	})
}

// Depth reports how many ingested records wait in the queue right now.
func (p *Pipeline) Depth() int { return p.q.Len() }

// Stats returns the current accounting snapshot (exact after Stop).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Events:    p.events.Load(),
		Dropped:   p.q.Dropped(),
		Predicted: p.predicted.Load(),
		Hits:      p.hits.Load(),
	}
}
