package rpc

import (
	"context"

	"farmer/internal/trace"
)

// window is the one way this package keeps several frames in flight on a
// connection: a FIFO of started requests whose acks are collected later, in
// order, by flush. Its owners — Client.FeedBatch and the Replicator's
// catch-ups — start every frame, then flush once. The first failure — a
// start the client refused, a refused or lost ack, a ctx expiry that
// abandons one — is sticky: once one frame is unaccounted for everything
// after it is in doubt, so later starts send nothing and return that error.
// Not safe for concurrent use; each owner brings its own lock.
type window struct {
	c *Client

	q   []*pending // in flight, oldest first
	err error      // first failure, sticky
}

// start sends one frame. The body is copied, so the caller may reuse it.
func (w *window) start(typ MsgType, body []byte) error {
	if w.err != nil {
		return w.err
	}
	p, err := w.c.start(typ, body)
	if err != nil {
		w.err = err
		return err
	}
	w.q = append(w.q, p)
	return nil
}

// flush collects every in-flight ack, oldest first — all of them even after
// a failure, so no response leaks into a later call's slot — and returns the
// first failure, which stays sticky.
func (w *window) flush(ctx context.Context) error {
	for _, p := range w.q {
		if _, err := w.c.wait(ctx, p); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.q = w.q[:0]
	return w.err
}

// chunkRecords cuts recs into consecutive runs whose appendRecords encoding
// stays within limit bytes (a run always takes at least one record, so it can
// exceed limit by at most that record) and yields them in order, stopping at
// the first error. An empty recs yields one empty run.
func chunkRecords(recs []trace.Record, limit int, yield func(run []trace.Record) error) error {
	lo, size := 0, 4
	for i := range recs {
		sz := trace.RecordFixedLen + len(recs[i].Path)
		if size+sz > limit && i > lo {
			if err := yield(recs[lo:i]); err != nil {
				return err
			}
			lo, size = i, 4
		}
		size += sz
	}
	return yield(recs[lo:])
}
