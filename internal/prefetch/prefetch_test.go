package prefetch

import (
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(8)
	for i := uint64(0); i < 5; i++ {
		q.Push(i, trace.FileID(i))
	}
	for i := uint64(0); i < 5; i++ {
		seq, f, ok := q.PopWait()
		if !ok || seq != i || f != trace.FileID(i) {
			t.Fatalf("pop %d: got (%d, %d) ok=%v", i, seq, f, ok)
		}
	}
	q.Close()
	if _, _, ok := q.PopWait(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(4)
	for i := uint64(0); i < 10; i++ {
		q.Push(i, 1)
	}
	if got := q.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	if got := q.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
	// The newest 4 records survive, in order.
	for i := uint64(6); i < 10; i++ {
		seq, _, ok := q.PopWait()
		if !ok || seq != i {
			t.Fatalf("retained record: got seq %d ok=%v, want seq %d", seq, ok, i)
		}
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(8)
	q.Push(1, 1)
	q.Push(2, 2)
	q.Close()
	q.Push(3, 3) // discarded uncounted
	for _, want := range []uint64{1, 2} {
		if seq, _, ok := q.PopWait(); !ok || seq != want {
			t.Fatalf("PopWait after close: seq %d ok=%v, want %d", seq, ok, want)
		}
	}
	if _, _, ok := q.PopWait(); ok {
		t.Fatal("PopWait on closed empty queue returned a record")
	}
	if q.Dropped() != 0 {
		t.Fatalf("a push after Close counted as a drop: %d", q.Dropped())
	}
	q.Close() // idempotent
}

func TestQueuePopWaitBlocks(t *testing.T) {
	q := NewQueue(4)
	got := make(chan uint64, 1)
	go func() {
		seq, _, _ := q.PopWait()
		got <- seq
	}()
	time.Sleep(5 * time.Millisecond) // let the popper block
	q.Push(7, 7)
	select {
	case seq := <-got:
		if seq != 7 {
			t.Fatalf("PopWait returned seq %d, want 7", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PopWait never woke up")
	}
}

// TestHitTrackerKeepsRepredictedFile: a file predicted, hit, and predicted
// again owns its second ring slot. Evicting the stale first slot must not
// take the fresh prediction with it.
func TestHitTrackerKeepsRepredictedFile(t *testing.T) {
	var h hitTracker
	h.add(7)
	if !h.take(7) {
		t.Fatal("a fresh prediction was not a hit")
	}
	h.add(7)
	for i := 0; i < hitWindow-1; i++ {
		h.add(trace.FileID(100 + i)) // the last of these reuses 7's first slot
	}
	if !h.take(7) {
		t.Fatal("the re-prediction left the window early, with its stale first slot")
	}
	// The window still holds the last hitWindow predictions: the next add
	// reuses the hit re-prediction's slot, the one after evicts 100.
	h.add(1)
	h.add(2)
	if h.take(100) {
		t.Fatal("a prediction survived hitWindow newer ones")
	}
	if !h.take(101) || !h.take(1) || !h.take(2) {
		t.Fatal("a prediction inside the window was evicted")
	}
}

// collectSink records every submitted candidate.
type collectSink struct {
	mu    sync.Mutex
	cands []Candidate
}

func (s *collectSink) Prefetch(c Candidate) {
	s.mu.Lock()
	s.cands = append(s.cands, c)
	s.mu.Unlock()
}

// TestPipelineEndToEnd runs the full async pipeline over a real sharded
// miner while it ingests a trace, then checks the accounting conservation
// law and that every candidate is well formed.
func TestPipelineEndToEnd(t *testing.T) {
	tr, err := tracegen.HP(4000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 4
	sm := core.NewSharded(cfg)
	sink := &collectSink{}
	p := Start(sm, sink, Config{K: 4, QueueCap: len(tr.Records)})
	sm.FeedTraceParallel(tr)
	p.Stop()
	p.Stop() // idempotent

	st := p.Stats()
	if st.Events != uint64(len(tr.Records)) || st.Dropped != 0 {
		t.Fatalf("events %d dropped %d, want %d and 0 (an oversized queue must not drop)",
			st.Events, st.Dropped, len(tr.Records))
	}
	if uint64(len(sink.cands)) != st.Predicted {
		t.Fatalf("sink saw %d candidates, stats say %d", len(sink.cands), st.Predicted)
	}
	if st.Predicted == 0 {
		t.Fatal("pipeline predicted nothing on a correlated trace")
	}
	for _, c := range sink.cands {
		if c.File == c.Trigger {
			t.Fatalf("self-prefetch candidate %+v", c)
		}
		if c.Seq == 0 || c.Seq > uint64(len(tr.Records)) {
			t.Fatalf("candidate with out-of-range seq: %+v", c)
		}
	}
	// Detached: later ingestion reaches no queue.
	sm.Feed(&tr.Records[0])
	if st2 := p.Stats(); st2 != st {
		t.Fatalf("a stopped pipeline moved: %+v -> %+v", st, st2)
	}
}

// gateSink blocks every submission until released, simulating a prefetch
// I/O path slower than prediction.
type gateSink struct {
	gate <-chan struct{}
	n    int
}

func (s *gateSink) Prefetch(Candidate) {
	<-s.gate
	s.n++
}

// TestPipelineBackpressure checks that a stalled sink never blocks
// ingestion: the bounded queue absorbs the burst, drops the oldest records,
// and the drop count plus the conservation law account for every record.
func TestPipelineBackpressure(t *testing.T) {
	tr, err := tracegen.HP(3000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 2
	sm := core.NewSharded(cfg)
	gate := make(chan struct{})
	sink := &gateSink{gate: gate}
	p := Start(sm, sink, Config{K: 4, QueueCap: 16})

	done := make(chan struct{})
	go func() {
		sm.FeedTraceParallel(tr) // must complete with the sink stalled
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingestion blocked behind a stalled prefetch sink")
	}
	close(gate) // release the sink and drain
	p.Stop()

	st := p.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops with a 16-slot queue against %d records", len(tr.Records))
	}
	if st.Events+st.Dropped != uint64(len(tr.Records)) {
		t.Fatalf("conservation violated: events %d + dropped %d != %d records",
			st.Events, st.Dropped, len(tr.Records))
	}
	if uint64(sink.n) != st.Predicted {
		t.Fatalf("sink served %d, stats say %d", sink.n, st.Predicted)
	}
}

// TestPipelineNilSinkDiscards checks that a nil sink is a supported
// measurement mode, not a background-goroutine panic.
func TestPipelineNilSinkDiscards(t *testing.T) {
	tr, err := tracegen.HP(1000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 2
	sm := core.NewSharded(cfg)
	p := Start(sm, nil, Config{K: 4})
	sm.FeedTraceParallel(tr)
	p.Stop()
	st := p.Stats()
	if st.Predicted == 0 || st.Events+st.Dropped != uint64(len(tr.Records)) {
		t.Fatalf("nil-sink accounting: %+v over %d records", st, len(tr.Records))
	}
}
