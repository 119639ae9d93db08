package lease

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock so lease expiry is deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time            { return c.t }
func (c *fakeClock) advance(d time.Duration)   { c.t = c.t.Add(d) }
func newClock() *fakeClock                     { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func holder(self string, c *fakeClock) *Holder { return NewHolder(self, time.Second, c.now) }

func TestAcquireAndRenew(t *testing.T) {
	c := newClock()
	h := holder("a", c)
	if h.Leading() {
		t.Fatal("leading before any acquire")
	}
	term, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if term.Epoch != 1 || term.Leader != "a" {
		t.Fatalf("got term %+v, want epoch 1 leader a", term)
	}
	if !h.Leading() {
		t.Fatal("not leading after acquire")
	}
	c.advance(900 * time.Millisecond)
	if err := h.Renew(); err != nil {
		t.Fatal(err)
	}
	c.advance(900 * time.Millisecond)
	if !h.Leading() {
		t.Fatal("renewal did not extend the lease")
	}
	c.advance(200 * time.Millisecond)
	if h.Leading() {
		t.Fatal("still leading past expiry")
	}
	// An expired leader may re-acquire: epoch moves forward.
	term2, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if term2.Epoch != 2 {
		t.Fatalf("re-acquire epoch %d, want 2", term2.Epoch)
	}
}

func TestAcquireRefusedWhileForeignLeaseLive(t *testing.T) {
	c := newClock()
	h := holder("b", c)
	if err := h.Observe(Term{Epoch: 3, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire under a live foreign lease: %v, want ErrLeaseHeld", err)
	}
	c.advance(2 * time.Second)
	term, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if term.Epoch != 4 || term.Leader != "b" {
		t.Fatalf("post-expiry acquire got %+v, want epoch 4 leader b", term)
	}
}

func TestObserveEpochRules(t *testing.T) {
	c := newClock()
	h := holder("f", c)
	if err := h.Observe(Term{Epoch: 2, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	// Lower epoch: stale.
	if err := h.Observe(Term{Epoch: 1, Leader: "z"}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("lower epoch observed: %v, want ErrStaleEpoch", err)
	}
	// Same epoch, different leader: stale (two leaders cannot share a term).
	if err := h.Observe(Term{Epoch: 2, Leader: "z"}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("same epoch different leader: %v, want ErrStaleEpoch", err)
	}
	// Same epoch, same leader: a renewal, refreshes the TTL.
	c.advance(900 * time.Millisecond)
	if err := h.Observe(Term{Epoch: 2, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	if term, left := h.Current(); term.Epoch != 2 || left != time.Second {
		t.Fatalf("renewal did not refresh: term %+v remaining %v", term, left)
	}
	// Higher epoch, new leader: adopted.
	if err := h.Observe(Term{Epoch: 5, Leader: "b"}); err != nil {
		t.Fatal(err)
	}
	if term, _ := h.Current(); term.Leader != "b" || term.Epoch != 5 {
		t.Fatalf("higher term not adopted: %+v", term)
	}
}

func TestObserveHigherEpochDeposesLeader(t *testing.T) {
	c := newClock()
	h := holder("a", c)
	if _, err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := h.Observe(Term{Epoch: 2, Leader: "b"}); err != nil {
		t.Fatal(err)
	}
	if h.Leading() {
		t.Fatal("still leading after a higher epoch deposed self")
	}
	if !h.Deposed() {
		t.Fatal("not marked deposed")
	}
	if err := h.Renew(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed renew: %v, want ErrStaleEpoch", err)
	}
	// Winning a later election clears the deposition.
	c.advance(2 * time.Second)
	if _, err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if !h.Leading() || h.Deposed() {
		t.Fatal("re-elected leader still deposed")
	}
}

func TestVote(t *testing.T) {
	c := newClock()
	h := holder("f", c)
	if err := h.Observe(Term{Epoch: 2, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	// Equal or lower epoch: refused.
	if err := h.Vote(2, "b"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("vote at current epoch: %v, want ErrStaleEpoch", err)
	}
	// Higher epoch but sitting leader's lease still live: refused.
	if err := h.Vote(3, "b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("vote under live lease: %v, want ErrLeaseHeld", err)
	}
	c.advance(2 * time.Second)
	if err := h.Vote(3, "b"); err != nil {
		t.Fatal(err)
	}
	// The vote adopts the candidate's term: no second vote in epoch 3.
	if err := h.Vote(3, "z"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("double vote in one epoch: %v, want ErrStaleEpoch", err)
	}
	if term, _ := h.Current(); term.Epoch != 3 || term.Leader != "b" {
		t.Fatalf("vote did not adopt candidate term: %+v", term)
	}
}

// TestVoteRenewsTheSittingLeader: a voter asked again by the leader it
// voted in renews its promise by one TTL — and only that leader, at that
// epoch, may ask.
func TestVoteRenewsTheSittingLeader(t *testing.T) {
	c := newClock()
	h := holder("f", c)
	if err := h.Vote(2, "b"); err != nil {
		t.Fatal(err)
	}
	c.advance(900 * time.Millisecond)
	if err := h.Vote(2, "b"); err != nil {
		t.Fatalf("the sitting leader's renewal: %v", err)
	}
	c.advance(900 * time.Millisecond)
	if _, left := h.Current(); left <= 0 {
		t.Fatal("the renewal did not extend the promise")
	}
	if err := h.Vote(3, "z"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("vote against a renewed lease: %v, want ErrLeaseHeld", err)
	}
	if err := h.Vote(2, "z"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("another candidate at the sitting epoch: %v, want ErrStaleEpoch", err)
	}
	if err := h.Vote(0, ""); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("a renewal of no term: %v, want ErrStaleEpoch", err)
	}
}

func TestVoteDeposesSittingSelf(t *testing.T) {
	c := newClock()
	h := holder("a", c)
	if _, err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	c.advance(2 * time.Second) // self's lease lapses
	if err := h.Vote(2, "b"); err != nil {
		t.Fatal(err)
	}
	if h.Leading() || !h.Deposed() {
		t.Fatal("voting another candidate in did not depose self")
	}
}

func TestDepose(t *testing.T) {
	c := newClock()
	h := holder("a", c)
	if _, err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	h.Depose()
	if h.Leading() {
		t.Fatal("leading after explicit depose")
	}
	if err := h.Renew(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("renew after depose: %v, want ErrStaleEpoch", err)
	}
}

func TestCurrentRemaining(t *testing.T) {
	c := newClock()
	h := holder("a", c)
	if term, left := h.Current(); term.Epoch != 0 || left != 0 {
		t.Fatalf("fresh holder: term %+v remaining %v", term, left)
	}
	if _, err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	c.advance(400 * time.Millisecond)
	if _, left := h.Current(); left != 600*time.Millisecond {
		t.Fatalf("remaining %v, want 600ms", left)
	}
}

// TestUntimedHolder: with TTL 0 no clock ends a term. Self leads until
// deposed; a foreign term lasts until its replication link is reported
// lost, after which Acquire takes the next epoch; and no vote is granted.
func TestUntimedHolder(t *testing.T) {
	c := newClock()
	leader := NewHolder("a", 0, c.now)
	if term, err := leader.Acquire(); err != nil || term != (Term{Epoch: 1, Leader: "a"}) {
		t.Fatalf("acquire: %+v %v", term, err)
	}
	c.advance(1000 * time.Hour)
	leader.LinkLost() // a link going away never ends self's own term
	if !leader.Leading() || !leader.Led() {
		t.Fatal("an untimed leader stopped leading without being deposed")
	}
	if err := leader.Renew(); err != nil || !leader.Leading() {
		t.Fatalf("renewing an untimed term must be a harmless no-op: %v", err)
	}
	if err := leader.Observe(Term{Epoch: 2, Leader: "b"}); err != nil {
		t.Fatal(err)
	}
	if leader.Leading() || !leader.Deposed() || !leader.Led() {
		t.Fatal("observing a higher epoch did not depose the untimed leader")
	}

	f := NewHolder("b", 0, c.now)
	if f.Leading() || f.Led() {
		t.Fatal("a fresh holder that acquired nothing claims to have led")
	}
	if err := f.Observe(Term{Epoch: 1, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	c.advance(1000 * time.Hour)
	if _, err := f.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire while the foreign term's link is up: %v, want ErrLeaseHeld", err)
	}
	if err := f.Vote(2, "c"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("an untimed holder granted a vote: %v", err)
	}
	f.LinkLost()
	if f.Led() {
		t.Fatal("losing the link made a follower look like an ex-leader")
	}
	term, err := f.Acquire()
	if err != nil || term != (Term{Epoch: 2, Leader: "b"}) || !f.Leading() {
		t.Fatalf("acquire after the link was lost: %+v %v", term, err)
	}

	// A timed holder ignores LinkLost: its terms end by the clock only.
	timed := holder("b", c)
	if err := timed.Observe(Term{Epoch: 1, Leader: "a"}); err != nil {
		t.Fatal(err)
	}
	timed.LinkLost()
	if _, err := timed.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("LinkLost ended a timed term early: %v", err)
	}
}

// BenchmarkElectionAcquire is the bench-smoke row for the election path:
// one expiry-check-plus-claim under the holder lock.
func BenchmarkElectionAcquire(b *testing.B) {
	h := NewHolder("a", time.Hour, nil)
	for i := 0; i < b.N; i++ {
		if _, err := h.Acquire(); err != nil {
			b.Fatal(err)
		}
	}
}
