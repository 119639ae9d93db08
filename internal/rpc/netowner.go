package rpc

import (
	"context"

	"farmer/internal/partition"
)

// DefaultNetOwnerWindow bounds a NetOwner's un-acked batches in flight.
const DefaultNetOwnerWindow = 64

// NetOwner adapts a Client into a partition.Owner: a dispatcher's event
// batches for one partition are shipped to a remote server as pipelined
// MsgApplyEvents requests. Because one connection delivers and the server
// handles requests strictly in arrival order, the remote model applies the
// batches in emission order — the FIFO invariant that keeps a remote
// partition bit-identical to a locally fed shard.
//
// ApplyEvents never waits a round trip: up to window batches ride the wire
// un-acked, and only when the window is full does the producer wait for the
// oldest ack (bounded memory, full pipelining). Errors are sticky and
// surface on Flush — an Owner cannot return one inline; batches
// after a failure are dropped (the stream is already lost).
//
// Like the in-process shard owners, a NetOwner expects a single dispatching
// goroutine; it is not safe for concurrent use.
type NetOwner struct {
	win  window
	body []byte // encode scratch, reused across batches
}

// NewNetOwner wraps an established client. limit <= 0 selects
// DefaultNetOwnerWindow.
func NewNetOwner(c *Client, limit int) *NetOwner {
	if limit <= 0 {
		limit = DefaultNetOwnerWindow
	}
	return &NetOwner{win: window{c: c, limit: limit}}
}

var _ partition.Owner = (*NetOwner)(nil)

// ApplyEvents ships one batch.
func (o *NetOwner) ApplyEvents(evs []partition.Event) {
	if len(evs) == 0 {
		return
	}
	o.body = appendEvents(o.body[:0], evs)
	_ = o.win.start(context.Background(), MsgApplyEvents, o.body) // sticky: Flush reports it
}

// Flush waits until every shipped batch is acked (or failed) and returns
// the first error. After a successful Flush the remote model has applied
// everything this owner ever shipped.
func (o *NetOwner) Flush() error { return o.win.flush(context.Background()) }
