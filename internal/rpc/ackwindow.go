package rpc

import (
	"context"
	"sync"
	"time"

	"farmer/internal/trace"
)

// AckWindow is the client-side counterpart of the replication stream's
// ack-window machinery (see Replicator): a bounded FIFO of in-flight
// MsgFeed/MsgFeedBatch frames whose acks are resolved asynchronously, so a
// consistency-sensitive caller streams records at pipeline throughput
// instead of paying one round trip per acked Feed.
//
// The window preserves exactly the acked-feed contract, just at a coarser
// barrier: every frame is started in order on one FIFO connection, the
// oldest in-flight ack is reaped whenever the window is full, and Flush
// blocks until every outstanding ack arrived. The first failed ack is
// STICKY: later Feeds fail fast without sending (nothing is silently
// re-sent past a failure), Flush drains what is still in flight and
// surfaces that first error, and the caller recovers exactly as it would
// from a failed synchronous Feed — the stream is in doubt from the first
// unacked frame, so it re-reads the server's Stats().Fed and resumes from
// there. Flush clears the sticky error once surfaced; the window is then
// ready for the resumed stream.
//
// An AckWindow is safe for concurrent use, but callers interleaving Feeds
// from several goroutines get no useful ordering guarantee between them —
// the intended shape is one streaming writer plus any number of readers on
// the same pipelined Client.
type AckWindow struct {
	mu      sync.Mutex
	n       int    // the in-flight bound (Window)
	win     window // in-flight frames and the sticky first failure
	scratch []byte // reused encode buffer (start copies the body)

	// Adaptive mode (NewAdaptiveAckWindow): the window grows and shrinks
	// between 1 and max from the observed reap RTT — additive increase while
	// acks come back near the smoothed RTT, multiplicative decrease when one
	// blows past it (the server or the pipe is backing up, and more frames
	// in flight only deepen the queue).
	adaptive bool
	max      int
	ewmaNS   float64 // smoothed reap RTT; 0 = no sample yet
}

// adaptiveDefaultMax bounds NewAdaptiveAckWindow's growth when the caller
// gives no cap of its own — the measured knee of the windowed feed path
// (ROADMAP item 2: gains flatten past w32; 64 leaves headroom for slower
// links without letting a burst queue unbounded frames).
const adaptiveDefaultMax = 64

// NewAckWindow creates a window keeping up to n frames in flight on this
// client's connection; n < 1 is normalized to 1 (every Feed reaps the
// previous frame's ack — still one round trip ahead of the synchronous
// path).
func (c *Client) NewAckWindow(n int) *AckWindow {
	if n < 1 {
		n = 1
	}
	return &AckWindow{n: n, win: window{c: c, limit: n, q: make([]*pending, 0, n)}}
}

// NewAdaptiveAckWindow creates a self-tuning window: it starts at 1 frame
// in flight and grows toward max while reap RTTs stay near the smoothed
// baseline, halving when one spikes past it. max < 1 means the default cap.
func (c *Client) NewAdaptiveAckWindow(max int) *AckWindow {
	if max < 1 {
		max = adaptiveDefaultMax
	}
	w := &AckWindow{n: 1, adaptive: true, max: max, win: window{c: c, limit: 1, q: make([]*pending, 0, max)}}
	w.win.acked = func(rtt time.Duration) int { w.adapt(rtt); return w.n }
	return w
}

// Window reports the current in-flight bound (fixed, or the adaptive
// window's present size).
func (w *AckWindow) Window() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// InFlight reports how many frames currently await their ack.
func (w *AckWindow) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.win.q)
}

// Feed streams one record: the frame is started immediately and its ack is
// resolved later, by a subsequent Feed once the window is full, or by
// Flush. The returned error is either this window's sticky first failure
// (nothing was sent) or a failure to start/reap — in both cases the stream
// is in doubt and the caller resumes from the server's Stats().Fed after
// Flush.
func (w *AckWindow) Feed(ctx context.Context, r *trace.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.scratch = trace.AppendRecord(w.scratch[:0], r)
	return w.win.start(ctx, MsgFeed, w.scratch)
}

// FeedBatch streams a record batch, split into frames below the batch body
// bound exactly like Client.FeedBatch; each frame occupies one window slot.
func (w *AckWindow) FeedBatch(ctx context.Context, recs []trace.Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return chunkRecords(recs, maxBatchBody, func(run []trace.Record, _ bool) error {
		w.scratch = appendRecords(w.scratch[:0], run)
		return w.win.start(ctx, MsgFeedBatch, w.scratch)
	})
}

// adapt is the AIMD rule, run per reaped ack under w.mu: an RTT within 2×
// the smoothed baseline grows the window by one (toward max); an RTT past
// 4× halves it and restarts the baseline at the spike, so a congested
// server is not judged against its idle latency forever.
func (w *AckWindow) adapt(rtt time.Duration) {
	ns := float64(rtt)
	if w.ewmaNS == 0 {
		w.ewmaNS = ns
		if w.n < w.max {
			w.n++
		}
		return
	}
	switch {
	case ns > 4*w.ewmaNS:
		w.n = max(1, w.n/2)
		w.ewmaNS = ns
		return
	case ns <= 2*w.ewmaNS && w.n < w.max:
		w.n++
	}
	w.ewmaNS += 0.2 * (ns - w.ewmaNS)
}

// Flush is the barrier: it blocks until every in-flight frame is acked and
// returns the window's first failure (the sticky error, or the first reap
// error the drain itself hits). All remaining acks are collected either
// way, so no response leaks into a later call's slot, and the sticky error
// is cleared once returned — after a non-nil Flush the caller resumes from
// the server's Stats().Fed and the window carries the resumed stream.
func (w *AckWindow) Flush(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.win.flush(ctx)
	w.win.err = nil
	return err
}

// Err reports the window's sticky first failure without blocking: nil means
// every ack reaped so far succeeded (frames still in flight may yet fail —
// Flush is the barrier that accounts for them all).
func (w *AckWindow) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.win.err
}
