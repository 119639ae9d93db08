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
// what keeps a remote that applies every popped event bit-identical to the
// sequential mine while nothing is dropped. It is safe for concurrent use.
type Mailbox struct {
	mu      sync.Mutex
	buf     []Event // ring buffer
	head, n int
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
	}
	b.mu.Unlock()
}

// Pop removes and returns the oldest queued event; a caller metering
// delivery pops only the events whose modeled network latency has elapsed.
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

// Dropped reports how many events overflow evicted before delivery.
func (b *Mailbox) Dropped() uint64 { return b.dropped.Load() }
