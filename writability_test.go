package farmer

// The writability contract (DESIGN.md "Leases, epochs & live handoff") as
// one table: a backend is walked into each reachable state of
// {primary, follower} × {untimed, TTL} × {link attached, link lost,
// promoted, deposed by handoff, lapsed}, and the answers of LeaseStatus,
// Feed, Promote and Catchup are pinned there. Every answer comes from the
// backend's lease Holder and its pinned link — there is nothing else to ask.

import (
	"errors"
	"testing"
	"time"

	"farmer/internal/lease"
	"farmer/internal/rpc"
	"farmer/internal/trace"
)

func TestWritabilityContract(t *testing.T) {
	const (
		ttl   = time.Second
		self  = "self:1"
		link  = uint64(7) // the primary's replication connection
		other = uint64(8) // a second would-be primary
	)
	empty, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	cut, err := empty.catchupCut()
	if err != nil {
		t.Fatal(err)
	}

	type env struct {
		t   *testing.T
		b   *serveBackend
		now *time.Time
	}
	must := func(e env, err error) {
		e.t.Helper()
		if err != nil {
			e.t.Fatalf("walking the backend into its state: %v", err)
		}
	}
	refused := func(e env, err error) {
		e.t.Helper()
		if err == nil {
			e.t.Fatal("a step that must be refused was accepted")
		}
	}
	// The steps of a backend's life, as the wire layer delivers them.
	attach := func(e env) { // catch-up, then the attach-time term announcement
		must(e, e.b.Catchup(link, cut))
		must(e, e.b.LeaseGrant(link, rpc.LeaseInfo{Epoch: 1, Leader: "P"}))
	}
	lose := func(e env) { e.b.ConnClosed(link) }
	promote := func(e env) { must(e, e.b.Promote()) }
	lapse := func(e env) { *e.now = e.now.Add(2 * ttl) }
	handedOff := func(e env) { // the commit Handoff runs on the source, under the stream lock
		term, _ := e.b.holder.Current()
		must(e, e.b.holder.Observe(lease.Term{Epoch: term.Epoch + 1, Leader: "T"}))
	}
	transfer := rpc.LeaseInfo{Epoch: 2, Leader: "dial-name-of-self", Transfer: true}
	granted := func(e env) { must(e, e.b.LeaseGrant(link, transfer)) }
	handoffRefused := func(e env) { refused(e, e.b.Handoff("127.0.0.1:1")) }
	transferRefused := func(e env) { refused(e, e.b.LeaseGrant(link, transfer)) }
	strayGrantRefused := func(e env) {
		refused(e, e.b.LeaseGrant(other, rpc.LeaseInfo{Epoch: 9, Leader: "X"}))
	}

	type step = func(env)
	for _, tc := range []struct {
		name     string
		follower bool
		ttl      time.Duration
		steps    []step

		epoch   uint64 // LeaseStatus
		leads   bool   // LeaseStatus.Self
		feed    error  // nil, ErrNotPrimary or ErrStaleEpoch
		promote error
		catchup bool // a catch-up from another connection is accepted
	}{
		{name: "primary/untimed/start", epoch: 1, leads: true},
		{name: "primary/untimed/handoff refused", steps: []step{handoffRefused}, epoch: 1, leads: true},
		{name: "primary/ttl/start", ttl: ttl, epoch: 1, leads: true},
		{name: "primary/ttl/deposed by handoff", ttl: ttl, steps: []step{handedOff},
			epoch: 2, feed: ErrStaleEpoch, promote: ErrStaleEpoch},
		{name: "primary/ttl/deposed, successor's lease lapsed", ttl: ttl, steps: []step{handedOff, lapse},
			epoch: 2, feed: ErrStaleEpoch, promote: ErrStaleEpoch},
		{name: "primary/ttl/lapsed", ttl: ttl, steps: []step{lapse},
			epoch: 1, feed: ErrStaleEpoch, promote: ErrStaleEpoch},

		{name: "follower/untimed/never linked", follower: true,
			epoch: 0, feed: ErrNotPrimary, catchup: true},
		{name: "follower/untimed/link attached", follower: true, steps: []step{attach, strayGrantRefused},
			epoch: 1, feed: ErrNotPrimary, promote: ErrNotPrimary},
		{name: "follower/untimed/transfer refused", follower: true, steps: []step{attach, transferRefused},
			epoch: 1, feed: ErrNotPrimary, promote: ErrNotPrimary},
		{name: "follower/untimed/link lost", follower: true, steps: []step{attach, lose},
			epoch: 1, feed: ErrNotPrimary, catchup: true},
		{name: "follower/untimed/promoted", follower: true, steps: []step{attach, lose, promote},
			epoch: 2, leads: true},

		{name: "follower/ttl/never linked", follower: true, ttl: ttl,
			epoch: 0, feed: ErrNotPrimary, catchup: true},
		{name: "follower/ttl/link attached", follower: true, ttl: ttl, steps: []step{attach},
			epoch: 1, feed: ErrNotPrimary, promote: ErrNotPrimary},
		{name: "follower/ttl/link attached, lease lapsed", follower: true, ttl: ttl, steps: []step{attach, lapse},
			epoch: 1, feed: ErrNotPrimary, promote: ErrNotPrimary},
		{name: "follower/ttl/link lost, lease live", follower: true, ttl: ttl, steps: []step{attach, lose},
			epoch: 1, feed: ErrNotPrimary, promote: ErrNotPrimary, catchup: true},
		{name: "follower/ttl/link lost, lease lapsed", follower: true, ttl: ttl, steps: []step{attach, lose, lapse},
			epoch: 1, feed: ErrNotPrimary, catchup: true},
		{name: "follower/ttl/promoted", follower: true, ttl: ttl, steps: []step{attach, lose, lapse, promote},
			epoch: 2, leads: true},
		{name: "follower/ttl/promoted then lapsed", follower: true, ttl: ttl, steps: []step{attach, lose, lapse, promote, lapse},
			epoch: 2, feed: ErrStaleEpoch, promote: ErrStaleEpoch},
		{name: "follower/ttl/lease transferred", follower: true, ttl: ttl, steps: []step{attach, granted},
			epoch: 2, leads: true},
		{name: "follower/ttl/transferred, source gone", follower: true, ttl: ttl, steps: []step{attach, granted, lose},
			epoch: 2, leads: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// build walks a fresh backend into the row's state.
			build := func() *serveBackend {
				m, err := Open(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { m.Close() })
				now := time.Unix(1_000_000, 0)
				h := lease.NewHolder(self, tc.ttl, func() time.Time { return now })
				if !tc.follower {
					if _, err := h.Acquire(); err != nil {
						t.Fatal(err)
					}
				}
				b := &serveBackend{m: m, logf: func(string, ...any) {}, holder: h, lease: &leaseState{holder: h}}
				for _, s := range tc.steps {
					s(env{t, b, &now})
				}
				return b
			}
			is := func(what string, got, want error) {
				t.Helper()
				if want == nil && got != nil || want != nil && !errors.Is(got, want) {
					t.Errorf("%s: got %v, want %v", what, got, want)
				}
			}

			b := build()
			st := b.LeaseStatus()
			if st.Epoch != tc.epoch || st.Self != tc.leads {
				t.Errorf("LeaseStatus = epoch %d self %v, want epoch %d self %v", st.Epoch, st.Self, tc.epoch, tc.leads)
			}
			if st.Self && st.Leader != self {
				t.Errorf("leading under the name %q, want %q", st.Leader, self)
			}
			is("Feed", b.Feed(&trace.Record{File: 1}), tc.feed)
			is("FeedBatch", b.FeedBatch([]trace.Record{{File: 2}}), tc.feed)
			is("Promote", b.Promote(), tc.promote)
			if tc.promote == nil {
				// A granted promotion is the whole story: the backend leads.
				is("Feed after Promote", b.Feed(&trace.Record{File: 3}), nil)
			}

			// Only a backend that has never led, with no other link pinned,
			// accepts a primary.
			if err := build().Catchup(other, cut); (err == nil) != tc.catchup {
				t.Errorf("Catchup from a new primary: %v, want accepted=%v", err, tc.catchup)
			}
		})
	}
}
