package prefetch

import (
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/obs"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

func cand(n uint64) Candidate {
	return Candidate{Trigger: trace.FileID(n), File: trace.FileID(n + 1), Seq: n}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(8, nil)
	for i := uint64(0); i < 5; i++ {
		q.Push(cand(i))
	}
	for i := uint64(0); i < 5; i++ {
		c, ok := q.PopWait()
		if !ok || c.Seq != i {
			t.Fatalf("pop %d: got %+v ok=%v", i, c, ok)
		}
	}
	q.Close()
	if _, ok := q.PopWait(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestQueueDropOldest(t *testing.T) {
	var dropped obs.Counter
	q := NewQueue(4, &dropped)
	for i := uint64(0); i < 10; i++ {
		q.Push(cand(i))
	}
	if got := dropped.Load(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	if got := q.Dropped(); got != 6 {
		t.Fatalf("q.Dropped() = %d, want 6", got)
	}
	// The newest 4 candidates survive, in order.
	for i := uint64(6); i < 10; i++ {
		c, ok := q.PopWait()
		if !ok || c.Seq != i {
			t.Fatalf("retained candidate: got %+v ok=%v, want seq %d", c, ok, i)
		}
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(8, nil)
	q.Push(cand(1))
	q.Push(cand(2))
	q.Close()
	if ok := q.Push(cand(3)); ok {
		t.Fatal("push after close succeeded")
	}
	if c, ok := q.PopWait(); !ok || c.Seq != 1 {
		t.Fatalf("PopWait after close lost queued candidate: %+v ok=%v", c, ok)
	}
	if c, ok := q.PopWait(); !ok || c.Seq != 2 {
		t.Fatalf("PopWait after close lost queued candidate: %+v ok=%v", c, ok)
	}
	if _, ok := q.PopWait(); ok {
		t.Fatal("PopWait on closed empty queue returned a candidate")
	}
	q.Close() // idempotent
}

func TestQueuePopWaitBlocks(t *testing.T) {
	q := NewQueue(4, nil)
	got := make(chan Candidate, 1)
	go func() {
		c, _ := q.PopWait()
		got <- c
	}()
	time.Sleep(5 * time.Millisecond) // let the popper block
	q.Push(cand(7))
	select {
	case c := <-got:
		if c.Seq != 7 {
			t.Fatalf("PopWait returned %+v, want seq 7", c)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PopWait never woke up")
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
// laws and that the mined state was untouched by concurrent prediction.
func TestPipelineEndToEnd(t *testing.T) {
	tr, err := tracegen.HP(4000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 4
	sm := core.NewSharded(cfg)
	sink := &collectSink{}
	p := Start(sm, sink, Config{K: 4, QueueCap: 1 << 16, TapBuffer: len(tr.Records)})
	sm.FeedTraceParallel(tr)
	p.Stop()
	p.Stop() // idempotent

	st := p.Stats()
	if st.Events != uint64(len(tr.Records)) {
		t.Fatalf("events = %d, want %d (oversized tap must not drop)", st.Events, len(tr.Records))
	}
	if st.TapDropped != 0 {
		t.Fatalf("tap dropped %d events with oversized buffer", st.TapDropped)
	}
	if st.Predicted != st.Submitted+st.QueueDropped {
		t.Fatalf("conservation violated: predicted %d != submitted %d + dropped %d",
			st.Predicted, st.Submitted, st.QueueDropped)
	}
	if uint64(len(sink.cands)) != st.Submitted {
		t.Fatalf("sink saw %d candidates, stats say %d", len(sink.cands), st.Submitted)
	}
	if st.Submitted == 0 {
		t.Fatal("pipeline submitted nothing on a correlated trace")
	}
	for _, c := range sink.cands {
		if c.File == c.Trigger {
			t.Fatalf("self-prefetch candidate %+v", c)
		}
		if c.Seq == 0 || c.Seq > uint64(len(tr.Records)) {
			t.Fatalf("candidate with out-of-range seq: %+v", c)
		}
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

// TestPipelineBackpressure checks that a slow sink never blocks ingestion:
// the bounded queue absorbs the burst, drops the oldest candidates, and the
// drop counter plus the conservation law account for every prediction.
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
	p := Start(sm, sink, Config{K: 4, QueueCap: 16, TapBuffer: len(tr.Records)})

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
	if st.QueueDropped == 0 {
		t.Fatalf("no drops with a 16-slot queue against %d predictions", st.Predicted)
	}
	if st.Predicted != st.Submitted+st.QueueDropped {
		t.Fatalf("conservation violated: predicted %d != submitted %d + dropped %d",
			st.Predicted, st.Submitted, st.QueueDropped)
	}
	if uint64(sink.n) != st.Submitted {
		t.Fatalf("sink served %d, stats say %d", sink.n, st.Submitted)
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
	p := Start(sm, nil, Config{K: 4, TapBuffer: len(tr.Records)})
	sm.FeedTraceParallel(tr)
	p.Stop()
	st := p.Stats()
	if st.Predicted == 0 || st.Predicted != st.Submitted+st.QueueDropped {
		t.Fatalf("nil-sink accounting: predicted %d submitted %d dropped %d",
			st.Predicted, st.Submitted, st.QueueDropped)
	}
}
