package partition

import (
	"sync"

	"farmer/internal/obs"
)

// DefaultMailboxCap bounds a Mailbox when NewMailbox is given a
// non-positive capacity.
const DefaultMailboxCap = 4096

// Mailbox is a bounded FIFO buffer of events in flight toward one remote
// owner — the inter-MDS counterpart of the in-process event taps. Producers
// never block: a full mailbox evicts its OLDEST undelivered event (counted
// on the dropped Counter), so a mining burst degrades remote model fidelity
// instead of stalling the dispatcher. Push order is preserved, which is
// what keeps a drained remote bit-identical to the sequential mine while
// nothing is dropped.
//
// Mailbox implements Owner (ApplyEvents = Push), so a Dispatcher can fan
// out to a mix of local shards and remote mailboxes through one interface.
// It is safe for concurrent use.
type Mailbox struct {
	mu      sync.Mutex
	buf     []Event // ring buffer
	head, n int
	pushed  uint64
	dropped *obs.Counter
}

// NewMailbox creates a mailbox holding up to capacity events
// (DefaultMailboxCap when <= 0). Drops are counted on dropped; pass nil for
// a private counter.
func NewMailbox(capacity int, dropped *obs.Counter) *Mailbox {
	if capacity <= 0 {
		capacity = DefaultMailboxCap
	}
	if dropped == nil {
		dropped = new(obs.Counter)
	}
	return &Mailbox{buf: make([]Event, capacity), dropped: dropped}
}

// ApplyEvents implements Owner by enqueueing the batch.
func (b *Mailbox) ApplyEvents(evs []Event) { b.Push(evs...) }

// Push appends events, evicting the oldest queued event for each one that
// does not fit.
func (b *Mailbox) Push(evs ...Event) {
	b.mu.Lock()
	for _, ev := range evs {
		if b.n == len(b.buf) {
			b.head = (b.head + 1) % len(b.buf)
			b.n--
			b.dropped.Inc()
		}
		b.buf[(b.head+b.n)%len(b.buf)] = ev
		b.n++
		b.pushed++
	}
	b.mu.Unlock()
}

// Pop removes and returns the oldest queued event. Callers metering
// delivery (e.g. releasing only the events whose modeled network latency
// has elapsed) pop selectively instead of Drain.
func (b *Mailbox) Pop() (Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return Event{}, false
	}
	ev := b.buf[b.head]
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	return ev, true
}

// Drain removes every queued event in FIFO order and hands them to apply
// as one batch. It returns the number of events delivered. apply runs with
// the mailbox unlocked, so an owner may push from within it.
func (b *Mailbox) Drain(apply func(evs []Event)) int {
	b.mu.Lock()
	n := b.n
	if n == 0 {
		b.mu.Unlock()
		return 0
	}
	first := b.buf[b.head:min(b.head+n, len(b.buf))]
	var second []Event
	if rest := n - len(first); rest > 0 {
		second = b.buf[:rest]
	}
	// Copy out so concurrent pushes cannot overwrite the slices while apply
	// runs unlocked.
	out := make([]Event, 0, n)
	out = append(out, first...)
	out = append(out, second...)
	b.head = (b.head + n) % len(b.buf)
	b.n = 0
	b.mu.Unlock()
	apply(out)
	return n
}

// Len reports the queued event count.
func (b *Mailbox) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Pushed reports how many events were accepted (including later drops).
func (b *Mailbox) Pushed() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pushed
}

// Dropped reports how many events overflow evicted before delivery.
func (b *Mailbox) Dropped() uint64 { return b.dropped.Load() }
