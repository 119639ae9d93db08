// Event taps: ordered, bounded notification channels hung off ShardedModel
// ingestion, so an asynchronous prefetch pipeline can react to mined updates
// without ever sitting on the demand path.
//
// A tap carries one TapEvent per ingested record, delivered on the channel of
// the shard that owns the accessed file's mined state, after that shard has
// installed the record's update (post-ingest). Every per-shard channel is
// FIFO in global stream order. Channels are bounded: when a consumer falls
// behind, the producer drops the OLDEST queued event and counts it, so a
// mining burst degrades notification coverage instead of ingestion latency —
// taps never block Feed or FeedBatch.
package core

import (
	"farmer/internal/obs"
	"farmer/internal/trace"
)

// TapEvent is one post-ingest notification: record Seq (1-based global
// ingestion sequence) for file File was mined, and File's correlation state
// lives on shard Shard.
type TapEvent struct {
	Seq   uint64
	File  trace.FileID
	Shard int
}

// DefaultTapBuffer is the per-shard channel capacity used when Tap is called
// with a non-positive buffer.
const DefaultTapBuffer = 256

// EventTap is a registered subscription to a ShardedModel's ingestion
// stream. Consume each shard's events with Chan(i); the channels are closed
// (after draining) by Close.
type EventTap struct {
	model   *ShardedModel
	chans   []chan TapEvent
	dropped []obs.Counter // per shard, one cache line each
	closed  bool          // guarded by model.tmu
}

// Tap registers a new event tap with the given per-shard buffer size
// (DefaultTapBuffer when <= 0). The returned tap observes every record
// ingested after the call.
func (s *ShardedModel) Tap(buffer int) *EventTap {
	if buffer <= 0 {
		buffer = DefaultTapBuffer
	}
	n := len(s.shards)
	t := &EventTap{
		model:   s,
		chans:   make([]chan TapEvent, n),
		dropped: make([]obs.Counter, n),
	}
	for i := range t.chans {
		t.chans[i] = make(chan TapEvent, buffer)
	}
	s.tmu.Lock()
	s.taps = append(s.taps, t)
	s.tmu.Unlock()
	s.tapCount.Add(1)
	return t
}

// publish fans one post-ingest event out to every registered tap. Callers
// guarantee that for a given shard there is exactly one publishing goroutine
// at a time (the dispatcher on the streaming path, the shard worker during
// FeedBatch), which keeps each channel FIFO in stream order.
func (s *ShardedModel) publish(shard int, ev TapEvent) {
	if s.tapCount.Load() == 0 {
		return
	}
	s.tmu.RLock()
	for _, t := range s.taps {
		t.send(shard, ev)
	}
	s.tmu.RUnlock()
}

// send delivers ev on the shard's channel, dropping the oldest queued event
// when the consumer has fallen a full buffer behind. It never blocks.
func (t *EventTap) send(shard int, ev TapEvent) {
	ch := t.chans[shard]
	select {
	case ch <- ev:
		return
	default:
	}
	// Full: evict the oldest queued event to make room. The consumer may
	// race us and drain the channel first; then nothing is dropped.
	select {
	case <-ch:
		t.dropped[shard].Add(1)
	default:
	}
	select {
	case ch <- ev:
	default:
		// Unreachable with the single-producer-per-channel invariant, but
		// never block: account the fresh event as dropped instead.
		t.dropped[shard].Add(1)
	}
}

// Chan returns the ordered event channel of one shard. It is closed by
// Close after all pending events are observable (drain-then-exit for
// range loops).
func (t *EventTap) Chan(shard int) <-chan TapEvent { return t.chans[shard] }

// Shards reports how many per-shard channels the tap carries.
func (t *EventTap) Shards() int { return len(t.chans) }

// Dropped reports the total number of events discarded because the
// consumer lagged (summed over shards).
func (t *EventTap) Dropped() uint64 {
	var n uint64
	for i := range t.dropped {
		n += t.dropped[i].Load()
	}
	return n
}

// DroppedShard reports the drop count of a single shard's channel.
func (t *EventTap) DroppedShard(shard int) uint64 { return t.dropped[shard].Load() }

// Depth reports how many events are currently queued on one shard's
// channel — the tap's per-shard mailbox depth. Safe concurrently with
// ingestion and consumption; the value is naturally racy (a snapshot).
func (t *EventTap) Depth(shard int) int { return len(t.chans[shard]) }

// Depths returns the current queue depth of every shard channel.
func (t *EventTap) Depths() []int {
	out := make([]int, len(t.chans))
	for i := range t.chans {
		out[i] = len(t.chans[i])
	}
	return out
}

// Close unregisters the tap and closes its channels. In-flight events
// remain readable until each channel drains; consumers ranging over the
// channels terminate naturally. Close is idempotent and safe to call while
// the model is ingesting.
func (t *EventTap) Close() {
	s := t.model
	s.tmu.Lock()
	if t.closed {
		s.tmu.Unlock()
		return
	}
	t.closed = true
	for i, reg := range s.taps {
		if reg == t {
			s.taps = append(s.taps[:i], s.taps[i+1:]...)
			break
		}
	}
	s.tapCount.Add(-1)
	s.tmu.Unlock()
	// Publishers hold tmu.RLock around every send, so once unregistered
	// under the write lock no goroutine can still send: closing is safe.
	for _, ch := range t.chans {
		close(ch)
	}
}
