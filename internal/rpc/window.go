package rpc

import (
	"context"
	"time"

	"farmer/internal/trace"
)

// window is the one way this package keeps several frames in flight on a
// connection: a FIFO of started requests whose acks are collected later, in
// order. AckWindow bounds it (a full window reaps its oldest ack before the
// next start); Client.FeedBatch and the Replicator's catch-up leave it
// unbounded and flush at the end. The first failure — a start the
// client refused, a refused or lost ack, a ctx expiry that abandons one — is
// sticky: once one frame is unaccounted for everything after it is in doubt,
// so later starts send nothing and return that error. Not safe for
// concurrent use; each owner brings its own lock.
type window struct {
	c     *Client
	limit int // frames in flight before start reaps the oldest; 0 = no bound
	// acked, if set, is told the start→ack time (which includes time queued
	// behind the window) of every ack a full window reaps, and returns the
	// limit from then on: the seam AckWindow's AIMD rule plugs into. flush
	// does not report — a barrier is not evidence about the link.
	acked func(rtt time.Duration) (limit int)

	q   []*pending // in flight, oldest first
	err error      // first failure, sticky until the owner clears it
}

// start sends one frame, first reaping the oldest acks while the window is
// full. The body is copied, so the caller may reuse it.
func (w *window) start(ctx context.Context, typ MsgType, body []byte) error {
	for w.err == nil && w.limit > 0 && len(w.q) >= w.limit {
		if at, ok := w.reap(ctx); ok && w.acked != nil {
			w.limit = w.acked(time.Since(at))
		}
	}
	if w.err != nil {
		return w.err
	}
	p, err := w.c.start(typ, body)
	if err != nil {
		w.err = err
		return err
	}
	if w.acked != nil {
		p.at = time.Now()
	}
	w.q = append(w.q, p)
	return nil
}

// reap waits for the oldest in-flight ack; it reports when that frame was
// started and whether the ack came.
func (w *window) reap(ctx context.Context) (at time.Time, ok bool) {
	p := w.q[0]
	w.q = w.q[:copy(w.q, w.q[1:])]
	at = p.at // wait recycles p
	_, err := w.c.wait(ctx, p)
	if err != nil && w.err == nil {
		w.err = err
	}
	return at, err == nil
}

// flush collects every in-flight ack — all of them even after a failure, so
// no response leaks into a later call's slot — and returns the first
// failure, which stays sticky.
func (w *window) flush(ctx context.Context) error {
	for len(w.q) > 0 {
		w.reap(ctx)
	}
	return w.err
}

// chunkRecords cuts recs into consecutive runs whose appendRecords encoding
// stays within limit bytes (a run always takes at least one record, so it can
// exceed limit by at most that record) and yields them in order; last marks
// the final run. An empty recs yields one empty final run.
func chunkRecords(recs []trace.Record, limit int, yield func(run []trace.Record, last bool) error) error {
	lo, size := 0, 4
	for i := range recs {
		sz := trace.RecordFixedLen + len(recs[i].Path)
		if size+sz > limit && i > lo {
			if err := yield(recs[lo:i], false); err != nil {
				return err
			}
			lo, size = i, 4
		}
		size += sz
	}
	return yield(recs[lo:], true)
}
