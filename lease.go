package farmer

// lease.go is the lease runtime: every decision a backend makes about its
// write lease, in one type over internal/lease's term algebra. It reaches
// other farmerds only through leasePeers and reads time only through its
// Holder's clock, so lease_test.go runs a cluster of them in one goroutine.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"farmer/internal/lease"
	"farmer/internal/rpc"
)

// leasePeers is how a lease runtime reaches the other farmerds: one peer's
// vote (nil: granted), and a renewal broadcast to the attached followers,
// reporting how many acked and whether any refused it as stale.
type leasePeers interface {
	vote(ctx context.Context, peer string, epoch uint64, candidate string) error
	renew(ctx context.Context, info rpc.LeaseInfo) (acked int, stale bool)
}

// leaseRuntime decides one backend's write lease. Embedded in serveBackend,
// it is the backend's rpc.LeaseBackend and the lease half of its
// rpc.ReplicaBackend (Promote, ConnClosed).
type leaseRuntime struct {
	holder *lease.Holder // the one answer to "may this backend serve writes"
	peers  leasePeers
	logf   func(format string, args ...any)
	voters []string // ServeConfig.LeasePeers
	// followers is the CONFIGURED follower count (ServeConfig.ReplicateTo)
	// a renewal's quorum is counted from, not the attached count: a primary
	// partitioned from its followers must lapse, not renew in an empty room.
	followers int

	fmu     sync.Mutex
	srcConn uint64 // connection id of the attached primary link (0 = none)
}

// newLeaseRuntime builds a runtime in its start state: a follower has
// observed nothing and leads nothing; every other farmerd acquires epoch 1
// (a fresh holder has observed nothing, so that cannot fail). now is the
// lease clock (nil: time.Now).
func newLeaseRuntime(self string, ttl time.Duration, follower bool, now func() time.Time) *leaseRuntime {
	r := &leaseRuntime{holder: lease.NewHolder(self, ttl, now)}
	if !follower {
		_, _ = r.holder.Acquire()
	}
	return r
}

// forTenant derives a named tenant's runtime from the daemon's. With a TTL
// the daemon leads or follows as a whole: it shares the daemon's holder and
// voters, so promoting any tenant is the daemon's election. Untimed, a term
// lasts as long as the one stream that delivered it — promoting a tenant
// must not make a neighbour writable — so it starts its own holder.
func (r *leaseRuntime) forTenant(follower bool) *leaseRuntime {
	t := &leaseRuntime{holder: r.holder}
	if r.holder.TTL() <= 0 {
		t = newLeaseRuntime(r.holder.Self(), 0, follower, nil)
	}
	t.followers, t.voters = r.followers, r.voters
	return t
}

// writable reports whether this backend currently accepts mutations: only
// while its Holder leads. The refusal travels typed — never led: a follower
// (ErrNotPrimary); led and lapsed or deposed: stale (ErrStaleEpoch). The
// feed paths ask again inside the mine closure, under the replicator's
// stream lock where a lease transfer's commit is serialized, so a feed
// racing a transfer aborts before mining and is safe to retry elsewhere.
func (r *leaseRuntime) writable() error {
	if r.holder.Leading() {
		return nil
	}
	term, _ := r.holder.Current()
	switch {
	case !r.holder.Led():
		return fmt.Errorf("%w: this farmerd is a replication follower; dial its primary or promote it", rpc.ErrNotPrimary)
	case term.Leader != r.holder.Self():
		return fmt.Errorf("%w: lease epoch %d is held by %q", rpc.ErrStaleEpoch, term.Epoch, term.Leader)
	}
	return fmt.Errorf("%w: this farmerd's lease lapsed at epoch %d (renewal quorum lost?)", rpc.ErrStaleEpoch, term.Epoch)
}

// Promote makes this backend take the next epoch on a client's (or
// farmerctl's) request; on the leader it is a no-op. With voters it is the
// election run now: without their votes it could contradict a leader they
// still renew, or one that a follower still attached to it renews again.
// Timed, it is refused until a term was observed, as elect is: a follower
// restarted under a live primary that never re-dials it has seen no epoch,
// and would take epoch 1, the one that primary still holds.
func (r *leaseRuntime) Promote() error {
	term, _ := r.holder.Current()
	if term.Epoch == 0 && r.holder.TTL() > 0 {
		return fmt.Errorf("%w: refusing promotion, no lease term observed yet (a primary may still hold epoch 1)", rpc.ErrNotPrimary)
	}
	if !r.holder.Led() && len(r.voters) > 0 && r.source() == 0 {
		if votes, _ := r.votes(context.Background(), term.Epoch+1); votes < r.majority() {
			return fmt.Errorf("%w: refusing promotion, %d/%d peer votes", rpc.ErrNotPrimary, votes, r.majority())
		}
	}
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if r.holder.Led() {
		// A deposed or lapsed leader answers its stale refusal: no
		// "success" to a failover sweep, no epoch its successor may hold.
		return r.writable()
	}
	if r.srcConn != 0 {
		return fmt.Errorf("%w: refusing promotion, the primary's replication link is live", rpc.ErrNotPrimary)
	}
	// Acquire refuses while another leader's timed lease is still live: a
	// reachable-but-disconnected primary cannot be contradicted early.
	term, err := r.holder.Acquire()
	if err != nil {
		return fmt.Errorf("%w: refusing promotion: %v", rpc.ErrNotPrimary, err)
	}
	r.logf("promoted: leading at epoch %d, accepting writes from now on", term.Epoch)
	return nil
}

// LeaseStatus is the term, TTL (0: untimed) and whether the lease is this
// backend's own and live — what the client's failover sweep ranks by.
func (r *leaseRuntime) LeaseStatus() rpc.LeaseInfo {
	term, _ := r.holder.Current()
	return rpc.LeaseInfo{Epoch: term.Epoch, Leader: term.Leader, TTLMS: r.ttlMS(), Self: r.holder.Leading()}
}

func (r *leaseRuntime) ttlMS() uint64 { return uint64(r.holder.TTL() / time.Millisecond) }

// LeaseVote decides a candidate's election request, or the sitting leader's
// renewal by vote (Holder.Vote). A follower whose primary link is live
// withholds it: a primary it can hear from is not dead, whatever the
// candidate's clock says.
func (r *leaseRuntime) LeaseVote(epoch uint64, candidate string) error {
	if r.source() != 0 {
		return fmt.Errorf("farmer: vote for %q withheld, the primary's replication link is live", candidate)
	}
	term, _ := r.holder.Current()
	if err := r.holder.Vote(epoch, candidate); err != nil {
		return err
	}
	if epoch > term.Epoch { // not the sitting leader's renewal
		r.logf("lease: voted for %q at epoch %d", candidate, epoch)
	}
	return nil
}

// LeaseGrant folds in a term announced on the pinned replication link: an
// announcement refreshes this follower's view (refusing one as stale is how
// a deposed leader learns it lost); a TRANSFER grant — a live handoff's last
// frame, behind every record the source acked — makes it the leader.
func (r *leaseRuntime) LeaseGrant(conn uint64, info rpc.LeaseInfo) error {
	if src := r.source(); src == 0 || src != conn {
		return errors.New("farmer: lease grant outside the pinned replication link")
	}
	if !info.Transfer {
		return r.holder.Observe(lease.Term{Epoch: info.Epoch, Leader: info.Leader})
	}
	if r.holder.TTL() <= 0 {
		return errors.New("farmer: lease transfer to a farmerd without a lease TTL (start the target with -lease-ttl)")
	}
	// Adopt the epoch with SELF as leader: the source names this node by its
	// dial address, which need not match this node's listener address.
	if err := r.holder.Observe(lease.Term{Epoch: info.Epoch, Leader: r.holder.Self()}); err != nil {
		return err
	}
	r.logf("lease transferred: leading at epoch %d, accepting writes", info.Epoch)
	return nil
}

// transfer is the term a live handoff grants target — the next epoch — and
// the commit, run under the stream lock once the grant is started
// (rpc.Replicator.TransferLease), that deposes this leader in its favour.
func (r *leaseRuntime) transfer(target string) (rpc.LeaseInfo, func()) {
	term, _ := r.holder.Current()
	next := lease.Term{Epoch: term.Epoch + 1, Leader: target}
	return rpc.LeaseInfo{Epoch: next.Epoch, Leader: target, TTLMS: r.ttlMS()}, func() {
		_ = r.holder.Observe(next) // above all this holder observed: cannot fail
	}
}

// tick is one round of the timed lease, run every TTL/4 on the daemon's
// runtime: one that has led renews, one that never led may elect itself.
func (r *leaseRuntime) tick(ctx context.Context) {
	if r.holder.Led() {
		r.renew(ctx)
	} else {
		r.elect(ctx)
	}
}

// renew extends the leader's term through a quorum of the peers that could
// elect someone else: acks to a broadcast on the stream from half its
// configured followers, rounded up; or, elected by its voters, a majority
// of them voting its epoch again, so their promise lasts as long as its
// lease. A partitioned leader LAPSES within one TTL and refuses writes
// typed; a stale refusal means a higher epoch exists: it deposes itself.
func (r *leaseRuntime) renew(ctx context.Context) {
	h := r.holder
	term, _ := h.Current()
	if term.Leader != h.Self() || h.Deposed() {
		return // deposed, or handed off: this daemon no longer renews
	}
	// A timed renewal is worthless past its TTL; an untimed announcement is
	// bounded by the replicator's per-follower ack timeout alone.
	rctx, cancel := ctx, context.CancelFunc(func() {})
	if h.TTL() > 0 {
		rctx, cancel = context.WithTimeout(ctx, h.TTL())
	}
	acked, quorum, stale := 0, 0, false // neither followers nor voters: alone
	switch {
	case r.followers > 0:
		quorum = (1 + r.followers) / 2
		acked, stale = r.peers.renew(rctx, rpc.LeaseInfo{Epoch: term.Epoch, Leader: term.Leader, TTLMS: r.ttlMS()})
	case len(r.voters) > 0:
		quorum = r.majority()
		acked, stale = r.votes(rctx, term.Epoch)
	}
	cancel()
	switch {
	case stale:
		h.Depose()
		r.logf("lease: renewal refused as stale, a higher epoch exists; deposed, refusing writes")
	case acked >= quorum:
		_ = h.Renew()
	default:
		r.logf("lease: renewal acked by %d/%d peers, quorum not met; a timed lease will lapse", acked, quorum)
	}
}

// elect is follower self-election: once a leader was observed, its lease
// lapsed and its link is gone, a majority of the voters' votes for the next
// epoch lets the follower acquire it and serve writes.
func (r *leaseRuntime) elect(ctx context.Context) {
	term, remaining := r.holder.Current()
	if r.source() != 0 || term.Epoch == 0 || remaining > 0 {
		return
	}
	next := term.Epoch + 1
	if votes, _ := r.votes(ctx, next); votes < r.majority() {
		r.logf("lease: election for epoch %d got %d/%d peer votes; retrying", next, votes, r.majority())
		return
	}
	won, err := r.holder.Acquire()
	if err != nil {
		r.logf("lease: election for epoch %d lost: %v", next, err)
		return
	}
	r.logf("lease: elected at epoch %d after the leader's lease lapsed; accepting writes", won.Epoch)
}

// majority is how many voter grants an election or a renewal by vote needs:
// with this node's own, a majority. Zero voters: the pair elects alone.
func (r *leaseRuntime) majority() int { return (1 + len(r.voters)) / 2 }

// votes asks every voter to vote this runtime the leader of epoch and
// counts the grants; stale reports a refusal because a higher epoch exists.
// Any other failure is a withheld vote, never fatal: the next tick asks.
// Each voter gets an even share of half a TTL, so one that never answers
// cannot hold a renewal past the lease it renews.
func (r *leaseRuntime) votes(ctx context.Context, epoch uint64) (granted int, stale bool) {
	for _, peer := range r.voters {
		vctx, cancel := context.WithTimeout(ctx, r.holder.TTL()/time.Duration(2*len(r.voters)))
		switch err := r.peers.vote(vctx, peer, epoch, r.holder.Self()); {
		case err == nil:
			granted++
		case errors.Is(err, lease.ErrStaleEpoch):
			stale = true
		}
		cancel()
	}
	return granted, stale
}

// source reports the pinned primary link's connection id (0 = none).
func (r *leaseRuntime) source() uint64 {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	return r.srcConn
}

// pinSource admits conn as this backend's replication source. Only a
// backend that has never led accepts a primary (an ex-leader restarts to
// re-join). Pinning before the install is safe: the connection is serial,
// and any other connection's catch-up is refused here.
func (r *leaseRuntime) pinSource(conn uint64) error {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if r.holder.Led() {
		return errors.New("farmer: this farmerd has led (a primary, or a promoted follower) and refuses a new primary; restart it with -follow to re-join as a follower")
	}
	if r.srcConn != 0 && r.srcConn != conn {
		return errors.New("farmer: already following a primary on another connection")
	}
	r.srcConn = conn
	return nil
}

// ConnClosed releases the primary link if conn is it — the connection
// closed, or its catch-up failed — which makes a follower promotable.
// Untimed, the observed term ends with it (Holder.LinkLost).
func (r *leaseRuntime) ConnClosed(conn uint64) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if r.srcConn == conn {
		r.srcConn = 0
		r.holder.LinkLost()
		r.logf("primary replication link released; this follower is now promotable")
	}
}
