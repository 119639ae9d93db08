// Package lease is the epoch-versioned ownership layer: one monotone
// (epoch, leader) term per replicated miner, held for a TTL and renewed on
// the replication stream. It replaces the ad-hoc "first writable wins"
// promotion spread across the client failover sweep and the server's
// split-brain guard with a single rule: the highest epoch wins, writes
// against a lower epoch are rejected typed (ErrStaleEpoch), and a follower
// whose leader's lease expired elects itself by taking the next epoch.
//
// The package is pure coordination state — no wire, no goroutines, no real
// clock unless asked. serve.go owns the renewal/election loop and the
// quorum rules; Holder owns only the term algebra, so the invariants
// (epochs never regress, two leaders never coexist inside one Holder's
// view, a deposed leader stays deposed until it wins a new epoch) are
// testable with a fake clock.
package lease

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrStaleEpoch rejects an action performed under an epoch lower than one
// already observed — a write from a deposed leader, a vote for a stale
// candidate, a grant that would regress the term. Clients treat it like
// ErrNotPrimary: seek the current leader and retry.
var ErrStaleEpoch = errors.New("stale lease epoch")

// ErrLeaseHeld refuses an acquisition while a live lease from another
// leader is still within its TTL — the one-leader-at-a-time rule.
var ErrLeaseHeld = errors.New("lease held by another leader")

// Term is one ownership term: Leader holds the write lease for Epoch.
// Epoch 0 is "no lease ever observed".
type Term struct {
	Epoch  uint64
	Leader string
}

// Holder tracks one node's view of the cluster's lease. It is the single
// source of truth for "may I serve writes" (Leading) and "is this peer's
// claim current" (Observe/Vote).
//
// A Holder built with TTL 0 is UNTIMED: its terms never expire by the
// clock. Its own term lasts until it is deposed, and a foreign term lasts
// until LinkLost reports that the replication link which delivered it is
// gone — the availability-wins rule of a daemon run without -lease-ttl,
// expressed in the same term algebra. An untimed holder renews nothing and
// grants no votes.
type Holder struct {
	self string
	ttl  time.Duration
	now  func() time.Time

	mu      sync.Mutex
	term    Term
	expiry  time.Time // zero = no live lease observed; untimed: non-zero = live
	deposed bool      // self lost the lease to a higher epoch; stays set until self wins a new one
}

// NewHolder builds a Holder for the node named self with the given lease
// TTL (0 = untimed). now injects a clock for tests; nil means time.Now.
func NewHolder(self string, ttl time.Duration, now func() time.Time) *Holder {
	if now == nil {
		now = time.Now
	}
	return &Holder{self: self, ttl: ttl, now: now}
}

// Self returns the node name this holder elects and renews as.
func (h *Holder) Self() string { return h.self }

// TTL returns the lease duration terms are held for.
func (h *Holder) TTL() time.Duration { return h.ttl }

// Current returns the last observed term and how much of its TTL remains
// (<= 0 when expired or never granted, and always on an untimed holder).
func (h *Holder) Current() (Term, time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.expiry.IsZero() {
		return h.term, 0
	}
	return h.term, h.expiry.Sub(h.now())
}

// Leading reports whether self holds a live, un-deposed lease — the gate
// in front of every write.
func (h *Holder) Leading() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leadingLocked()
}

func (h *Holder) leadingLocked() bool {
	return h.term.Leader == h.self && !h.deposed && h.liveLocked()
}

// liveLocked reports whether the current term is still in force: inside
// its TTL, or — untimed — granted and not yet ended by LinkLost.
func (h *Holder) liveLocked() bool {
	return !h.expiry.IsZero() && (h.ttl <= 0 || h.now().Before(h.expiry))
}

// Led reports whether self has held a term since this holder was built —
// leading now, lapsed, or deposed. A holder that never led is a follower in
// waiting: it may be promoted or elect itself. One that led and lost the
// lease refuses as stale and comes back only by restarting, so a lapsed
// leader can never re-take an epoch its successor already claimed.
func (h *Holder) Led() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.term.Leader == h.self || h.deposed
}

// LinkLost tells an untimed holder that the replication link its foreign
// term arrived on is gone: the term ends, and Acquire may take the next
// epoch. A timed holder ignores it (its terms end by the clock, so a
// reachable-but-disconnected leader cannot be contradicted early), and
// self's own term never ends this way.
func (h *Holder) LinkLost() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ttl <= 0 && h.term.Leader != h.self {
		h.expiry = time.Time{}
	}
}

// Observe folds a term seen on the wire (a grant or a renewal) into this
// holder's view. A lower epoch — or the same epoch claimed by a different
// leader — is rejected with ErrStaleEpoch; an equal-or-higher term from
// the same or a new leader is adopted and its TTL refreshed. Observing a
// higher epoch while self was leading deposes self.
func (h *Holder) Observe(t Term) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case t.Epoch < h.term.Epoch:
		return fmt.Errorf("%w: observed epoch %d < current %d (leader %q)",
			ErrStaleEpoch, t.Epoch, h.term.Epoch, h.term.Leader)
	case t.Epoch == h.term.Epoch && t.Leader != h.term.Leader:
		return fmt.Errorf("%w: epoch %d already granted to %q, not %q",
			ErrStaleEpoch, t.Epoch, h.term.Leader, t.Leader)
	}
	if t.Epoch > h.term.Epoch && h.term.Leader == h.self && t.Leader != h.self {
		h.deposed = true
	}
	if t.Leader == h.self {
		h.deposed = false
	}
	h.term = t
	h.expiry = h.now().Add(h.ttl)
	return nil
}

// Renew extends self's own live lease by one TTL. It fails typed when self
// is not the current leader or has been deposed — the renewal loop turns
// that into "stop serving writes", never into a fresh claim.
func (h *Holder) Renew() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.term.Leader != h.self || h.deposed {
		return fmt.Errorf("%w: cannot renew epoch %d held by %q",
			ErrStaleEpoch, h.term.Epoch, h.term.Leader)
	}
	h.expiry = h.now().Add(h.ttl)
	return nil
}

// Acquire claims the next epoch for self. It refuses with ErrLeaseHeld
// while another leader's lease is still live (the election loop must wait
// out the TTL); otherwise it returns the newly held term — epoch strictly
// above everything this holder has observed — with self un-deposed.
func (h *Holder) Acquire() (Term, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.term.Leader != "" && h.term.Leader != h.self && h.liveLocked() {
		left := "until its replication link is lost"
		if h.ttl > 0 {
			left = "for another " + h.expiry.Sub(h.now()).String()
		}
		return Term{}, fmt.Errorf("%w: %q holds epoch %d %s", ErrLeaseHeld, h.term.Leader, h.term.Epoch, left)
	}
	h.term = Term{Epoch: h.term.Epoch + 1, Leader: h.self}
	h.expiry = h.now().Add(h.ttl)
	h.deposed = false
	return h.term, nil
}

// Vote decides a candidate's election request for epoch. The vote is
// granted — adopting the candidate's term, so this node cannot vote twice
// in one epoch or later accept a smaller one — only when the epoch is
// strictly above the current term AND the current lease has lapsed. A live
// lease means the sitting leader may still be serving; voting then would
// allow two leaders inside one TTL. An untimed holder never votes: a vote
// is a promise not to lead for one TTL, and it has no TTL to bound it.
func (h *Holder) Vote(epoch uint64, candidate string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ttl <= 0 {
		return fmt.Errorf("%w: vote for %q refused, this node runs without a lease TTL",
			ErrLeaseHeld, candidate)
	}
	if epoch <= h.term.Epoch {
		return fmt.Errorf("%w: vote for epoch %d refused, already at %d (leader %q)",
			ErrStaleEpoch, epoch, h.term.Epoch, h.term.Leader)
	}
	if h.term.Leader != "" && h.term.Leader != candidate && h.liveLocked() {
		return fmt.Errorf("%w: %q still holds epoch %d for another %v",
			ErrLeaseHeld, h.term.Leader, h.term.Epoch, h.expiry.Sub(h.now()))
	}
	if h.term.Leader == h.self && candidate != h.self {
		h.deposed = true
	}
	h.term = Term{Epoch: epoch, Leader: candidate}
	h.expiry = h.now().Add(h.ttl)
	return nil
}

// Depose marks self as no longer leader without learning the successor's
// term — used when a renewal is refused by a quorum. Writes stop
// immediately; the next Observe or Acquire decides what happens next.
func (h *Holder) Depose() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.term.Leader == h.self {
		h.deposed = true
	}
}

// Deposed reports whether self lost the lease to a higher epoch and has
// not won a new one since.
func (h *Holder) Deposed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deposed
}
