// Package prefetch hangs an asynchronous Predict/prefetch pipeline off the
// sharded miner's post-ingest event taps (core.ShardedModel.Tap), so the
// metadata demand path never waits on mining or prediction.
//
// Dataflow:
//
//	ingest (MDS demand path)           async (shard workers / pipeline)
//	────────────────────────           ─────────────────────────────────
//	ShardedModel.Feed ──► EventTap ──► consume: Predict(file, k)
//	     (never blocks:  bounded,            │
//	      drop-oldest)   per shard)          ▼
//	                                   Queue (bounded, drop-oldest,
//	                                          dropped-prefetch Counter)
//	                                         │
//	                                         ▼
//	                                   submit loop ──► Sink.Prefetch
//	                                                   (e.g. MDS prefetch
//	                                                    priority queue)
//
// Backpressure degrades prefetch coverage, never demand latency: when a
// mining burst outruns the consumers the tap drops its oldest notifications,
// and when the sink (the prefetch I/O path) is slower than prediction the
// candidate queue drops its oldest candidates. Both losses are counted and
// surfaced through Stats.
package prefetch

import (
	"sync"
	"sync/atomic"

	"farmer/internal/core"
	"farmer/internal/obs"
	"farmer/internal/trace"
)

// Candidate is one prefetch the pipeline wants issued: fetch File because
// Trigger (ingest sequence Seq) was just accessed and File correlates.
type Candidate struct {
	Trigger trace.FileID
	File    trace.FileID
	Seq     uint64
}

// Sink receives prefetch submissions from the pipeline's submit loop (one
// goroutine; implementations need not be safe for concurrent use unless
// they are shared elsewhere).
type Sink interface {
	Prefetch(c Candidate)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(c Candidate)

// Prefetch implements Sink.
func (f SinkFunc) Prefetch(c Candidate) { f(c) }

// DefaultQueueCap bounds the candidate queue when Config.QueueCap <= 0.
const DefaultQueueCap = 1024

// Queue is a bounded FIFO of prefetch candidates with drop-oldest overflow:
// a full queue evicts its oldest candidate (counted on the dropped Counter)
// rather than ever blocking the producer. It is safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	buf      []Candidate // ring buffer
	head, n  int
	closed   bool
	dropped  *obs.Counter
}

// NewQueue creates a queue holding up to capacity candidates
// (DefaultQueueCap when <= 0). Drops are counted on dropped; pass nil for a
// private counter.
func NewQueue(capacity int, dropped *obs.Counter) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	if dropped == nil {
		dropped = new(obs.Counter)
	}
	q := &Queue{buf: make([]Candidate, capacity), dropped: dropped}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// Push appends c, evicting the oldest queued candidate when full. It
// reports false (and discards c uncounted) after Close.
func (q *Queue) Push(c Candidate) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == len(q.buf) {
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.dropped.Inc()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = c
	q.n++
	q.nonEmpty.Signal()
	q.mu.Unlock()
	return true
}

// PopWait blocks until a candidate is available or the queue is closed and
// empty (the false return — queued candidates remain poppable after Close).
func (q *Queue) PopWait() (Candidate, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.n == 0 {
		return Candidate{}, false
	}
	c := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return c, true
}

// Close stops accepting pushes and wakes blocked PopWait callers once the
// queue drains. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// Dropped reports how many candidates were evicted by overflow.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// Config tunes a Pipeline.
type Config struct {
	// K is the prefetch degree: candidates predicted per ingest event.
	// Default 4.
	K int
	// QueueCap bounds the candidate queue (DefaultQueueCap when <= 0).
	QueueCap int
	// TapBuffer is the per-shard tap channel size
	// (core.DefaultTapBuffer when <= 0).
	TapBuffer int
}

// Stats is a snapshot of pipeline throughput and loss accounting. The
// conservation law Predicted == Submitted + QueueDropped holds exactly
// after Stop, which drains the queue.
type Stats struct {
	Events       uint64 // tap events consumed
	TapDropped   uint64 // tap notifications lost to consumer lag
	Predicted    uint64 // candidates produced by Predict
	Submitted    uint64 // candidates delivered to the sink
	QueueDropped uint64 // candidates evicted from the bounded queue
	Hits         uint64 // predictions later confirmed by an ingest event
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
// checks ingest events against: a prediction counts as a hit only if its
// file is accessed before hitWindow newer predictions evict it — a rolling
// stand-in for "was the prefetch still resident when the access came".
const hitWindow = 4096

// hitTracker is the bounded recently-predicted set. One small mutex-guarded
// map+ring shared by all shard consumers: a predicted file's later access
// event arrives on the file's own shard, not the predicting trigger's, so
// the set cannot be per-consumer. The lock is leaf and the critical
// sections are O(1); consumers are off the demand path by construction.
type hitTracker struct {
	mu   sync.Mutex
	set  map[trace.FileID]struct{}
	ring [hitWindow]trace.FileID
	n    int // ring entries written (head = n % hitWindow)
}

// add records a fresh prediction, evicting the oldest once the window is
// full. Duplicate predictions keep one set entry (the ring may hold stale
// slots; eviction of an already-hit file is a no-op).
func (h *hitTracker) add(f trace.FileID) {
	h.mu.Lock()
	if h.set == nil {
		h.set = make(map[trace.FileID]struct{}, hitWindow)
	}
	if _, dup := h.set[f]; !dup {
		if h.n >= hitWindow {
			delete(h.set, h.ring[h.n%hitWindow])
		}
		h.ring[h.n%hitWindow] = f
		h.n++
		h.set[f] = struct{}{}
	}
	h.mu.Unlock()
}

// take reports whether f was recently predicted, consuming the entry (one
// access confirms one prediction).
func (h *hitTracker) take(f trace.FileID) bool {
	h.mu.Lock()
	_, ok := h.set[f]
	if ok {
		delete(h.set, f)
	}
	h.mu.Unlock()
	return ok
}

// Pipeline is the running async prefetcher: per-shard consumer goroutines
// draining an EventTap, a bounded candidate queue, and one submit loop
// feeding the sink. Create with Start, end with Stop.
type Pipeline struct {
	pred interface {
		Predict(f trace.FileID, k int) []trace.FileID
	}
	sink Sink
	cfg  Config
	tap  *core.EventTap
	q    *Queue

	consumers sync.WaitGroup
	submitter sync.WaitGroup
	stopOnce  sync.Once

	events    atomic.Uint64
	predicted atomic.Uint64
	submitted atomic.Uint64
	hits      atomic.Uint64
	ht        hitTracker
}

// Start taps the model and launches the pipeline: one consumer goroutine
// per shard (preserving each shard's event order) plus the submit loop.
// The sink receives candidates until Stop; a nil sink discards them (the
// pipeline still predicts and accounts — useful for measurement runs).
func Start(m *core.ShardedModel, sink Sink, cfg Config) *Pipeline {
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if sink == nil {
		sink = SinkFunc(func(Candidate) {})
	}
	p := &Pipeline{
		pred: m,
		sink: sink,
		cfg:  cfg,
		tap:  m.Tap(cfg.TapBuffer),
		q:    NewQueue(cfg.QueueCap, nil),
	}
	for i := 0; i < p.tap.Shards(); i++ {
		p.consumers.Add(1)
		go p.consume(i)
	}
	p.submitter.Add(1)
	go p.submitLoop()
	return p
}

func (p *Pipeline) consume(shard int) {
	defer p.consumers.Done()
	for ev := range p.tap.Chan(shard) {
		p.events.Add(1)
		// Hit accounting first: this access confirms (at most) one earlier
		// prediction of the same file, before this event's own predictions
		// enter the window.
		if p.ht.take(ev.File) {
			p.hits.Add(1)
		}
		for _, f := range p.pred.Predict(ev.File, p.cfg.K) {
			p.predicted.Add(1)
			p.ht.add(f)
			p.q.Push(Candidate{Trigger: ev.File, File: f, Seq: ev.Seq})
		}
	}
}

func (p *Pipeline) submitLoop() {
	defer p.submitter.Done()
	for {
		c, ok := p.q.PopWait()
		if !ok {
			return
		}
		p.sink.Prefetch(c)
		p.submitted.Add(1)
	}
}

// Stop shuts the pipeline down in drain order: the tap closes (consumers
// finish the queued events), then the candidate queue closes (the submit
// loop delivers every remaining candidate), then Stop returns. Idempotent.
func (p *Pipeline) Stop() {
	p.stopOnce.Do(func() {
		p.tap.Close()
		p.consumers.Wait()
		p.q.Close()
		p.submitter.Wait()
	})
}

// Stats returns the current accounting snapshot (exact after Stop).
func (p *Pipeline) Stats() Stats {
	return Stats{
		Events:       p.events.Load(),
		TapDropped:   p.tap.Dropped(),
		Predicted:    p.predicted.Load(),
		Submitted:    p.submitted.Load(),
		QueueDropped: p.q.Dropped(),
		Hits:         p.hits.Load(),
	}
}
