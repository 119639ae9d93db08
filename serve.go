package farmer

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/core"
	"farmer/internal/lease"
	"farmer/internal/obs"
	"farmer/internal/rpc"
	"farmer/internal/trace"
)

// ServeConfig tunes Serve.
type ServeConfig struct {
	// Checkpoint saves the miner into its store every interval (0 = never).
	// The final drain always checkpoints once more when a store is
	// configured.
	Checkpoint time.Duration
	// DrainTimeout bounds the graceful shutdown (default 10s): connections
	// get that long to finish in-flight requests before being cut, and the
	// final checkpoint gets the same bound (a hung store write cannot wedge
	// the drain). Routine checkpoints (ticker and client-requested saves)
	// are bounded by max(DrainTimeout, Checkpoint, 1m): they run on the
	// serve loop, so an unbounded hang there would also make the eventual
	// drain unreachable, but a save that is merely slow keeps succeeding;
	// only a genuinely wedged write is abandoned.
	DrainTimeout time.Duration

	// ReplicateTo makes the served miner a replication PRIMARY: at startup
	// it dials each address (a farmerd started with Follower/-follow),
	// bootstraps it with a catch-up checkpoint, and thereafter streams every
	// acked record batch — and every group-backup cut — to it before acking
	// the client. Followers must be reachable at startup; one that fails
	// mid-serve — or that does not ack a frame within 30s — is dropped
	// (logged via Logf) and the primary keeps serving.
	ReplicateTo []string
	// Follower starts the served miner without the write lease (every other
	// daemon starts leading epoch 1): it accepts a primary's catch-up and
	// replication stream, serves reads, and refuses writes (ErrNotPrimary on
	// the wire) until it takes the next epoch — by a client's or farmerctl's
	// promotion request, granted only while no primary link is attached so a
	// live primary can never be contradicted (the split-brain guard), or,
	// with LeaseTTL, by electing itself. Mutually exclusive with ReplicateTo.
	Follower bool
	// ReplicaToken is the bearer token presented when dialing followers and
	// election peers — required when they run with AuthTokens (it must be
	// granted every tenant there, i.e. mapped to "*"). These dials are
	// plain TCP: a follower serving TLS cannot be replicated to.
	ReplicaToken string
	// LeaseTTL puts a clock on the write lease (internal/lease): the leader
	// renews it every TTL/4 — through the replication stream when followers
	// are configured, so a renewal needs a follower quorum and a partitioned
	// leader LAPSES within one TTL and refuses writes typed (ErrStaleEpoch)
	// instead of diverging — and a follower whose view of the lease lapsed
	// elects itself (votes from LeasePeers, then the next epoch) with no
	// farmerctl promote involved. 0 leaves the lease untimed, which is
	// availability-wins: the leader holds its epoch until the process ends,
	// and a follower's view of it ends with the replication link.
	LeaseTTL time.Duration
	// LeasePeers are the other farmerds asked to vote when this follower
	// elects itself (typically the sibling followers of one primary). An
	// election needs (1+len(LeasePeers))/2 granted votes; with no peers a
	// follower elects alone — the two-node deployment.
	LeasePeers []string

	// Logf, if set, receives serve-time notices (a dropped follower, a
	// promotion). Defaults to discarding them.
	Logf func(format string, args ...any)

	// Obs, when non-nil, receives the server's live metrics: the miner's
	// ingest/prefetch/checkpoint/prediction series, the wire layer's
	// frame/byte/per-tenant-feed counters, and — on a replicating primary —
	// per-follower replication lag. Render it with WritePrometheus/WriteJSON;
	// farmerd's -metrics-addr endpoint is exactly that.
	Obs *MetricsRegistry

	// TLS, when non-nil, serves the protocol over TLS on the listener —
	// the server half of farmerd -tls-cert/-tls-key.
	TLS *tls.Config
	// AuthTokens maps static bearer tokens to the tenant ids each may
	// address ("*" grants every tenant). When non-nil, every connection
	// must open with a hello carrying a known token before any frame
	// dispatches; unknown tokens and out-of-grant tenants are refused with
	// ErrUnauthorized. nil disables auth.
	AuthTokens map[string][]string
	// Tenants, when non-nil, turns the daemon multi-tenant: frames carrying
	// a tenant id resolve through a Registry that lazily opens one miner
	// (plus store, checkpoint schedule and replication stream) per tenant.
	// nil keeps the historical single-tenant behavior — named tenants are
	// refused, the provided miner serves the default tenant.
	Tenants *TenantsConfig
}

// serveBackend adapts a LocalMiner to the wire protocol's backend surface
// and carries the replication role state: a backend whose Holder leads
// takes writes (routing every mutation through the rpc.Replicator, if any,
// so followers see the exact acked stream); one that does not refuses them
// and, while it has never led, applies a primary's stream instead.
type serveBackend struct {
	m          *LocalMiner
	saveBudget time.Duration // routine-checkpoint bound (see ServeConfig.DrainTimeout)
	logf       func(format string, args ...any)

	// repl is non-nil on a replicating primary. It is guarded by replGate
	// because a live handoff (MsgHandoff) installs a replicator on a
	// previously standalone source mid-serve: the install takes the write
	// side, waiting out every in-flight direct-path feed, so the new
	// stream's starting position is exactly the miner's record count.
	replGate sync.RWMutex
	repl     *rpc.Replicator

	// holder is the one answer to "may this backend serve writes". With a
	// lease TTL the daemon leads or follows as a whole and every tenant
	// backend shares lease.holder; untimed, a term lasts exactly as long as
	// the replication link that delivered it, so each backend (one stream)
	// owns its own and tenants promote one by one.
	holder *lease.Holder
	// lease is the daemon-wide election, renewal and handoff configuration.
	lease *leaseState

	// tenant and budget carry the registry's admission control: feeds are
	// refused with ErrTenantBudget once the tenant's model footprint
	// clears budget.MaxMemoryBytes (default tenant: zero budget, unlimited).
	tenant     string
	budget     TenantBudget
	memPending atomic.Int64 // records since the last footprint check
	overBudget atomic.Bool

	fmu     sync.Mutex
	srcConn uint64 // connection id of the attached primary link (0 = none)
}

var _ rpc.ReplicaBackend = (*serveBackend)(nil)
var _ rpc.LeaseBackend = (*serveBackend)(nil)
var _ rpc.HandoffBackend = (*serveBackend)(nil)

// leaseState is the daemon-wide half of the lease layer: the daemon's
// Holder (term algebra; the default tenant's, and with a TTL every
// tenant's), the peer set consulted during elections, and the renewal
// quorum. serveBackend.leaseLoop drives it.
type leaseState struct {
	holder   *lease.Holder
	peers    []string
	dialOpts rpc.DialOptions // election vote probes dial peers with these
	// renewQuorum is how many follower acks a renewal broadcast needs —
	// half the CONFIGURED follower count, rounded up, not the attached
	// count: a primary partitioned from its followers must lapse, not
	// quietly renew against an empty room.
	renewQuorum int

	handoffs  *obs.Counter   // farmer_handoffs_total
	handoffNS *obs.Histogram // farmer_handoff_duration_ns
}

// newHolder builds a backend's Holder in its start state: a follower has
// observed nothing and leads nothing; every other backend acquires epoch 1
// (a fresh holder has observed nothing, so that cannot fail).
func newHolder(id string, ttl time.Duration, follower bool) *lease.Holder {
	h := lease.NewHolder(id, ttl, nil)
	if !follower {
		_, _ = h.Acquire()
	}
	return h
}

// replicate makes b stream to addrs — the one place a backend becomes a
// replicating primary, at daemon start, at a tenant's first touch and for a
// live handoff alike. It installs b's Replicator if b has none, under the
// write side of replGate: that waits out every in-flight direct-path feed,
// so the stream starts at exactly the miner's record count. It then catches
// up and attaches each address not yet on the stream and announces b's term
// to the attached followers — TTL or not, so a follower always knows whose
// epoch it mirrors, and now rather than at the first renewal tick: a leader
// that dies inside that first TTL/4 would otherwise leave followers that
// never observed any lease, and a follower that has seen no epoch refuses to
// elect itself.
//
// Each attach (dial, hello, catch-up verdict) is bounded by
// replicaAckTimeout, like each ack on the stream: a follower that accepts
// and never answers must not hold the caller — which may hold the registry
// lock every frame of every tenant takes — forever.
// With must, the first failed attach is returned; without, it is logged and
// skipped (a tenant opening on a daemon that already serves: availability
// wins over replica count).
func (ls *leaseState) replicate(ctx context.Context, b *serveBackend, addrs []string, must bool) error {
	b.replGate.Lock()
	if b.repl == nil {
		do := ls.dialOpts
		do.Tenant = b.tenant
		b.repl = rpc.NewReplicator(b.m.sm.Fed(), replicaAckTimeout, do, b.m.catchupFingerprint, func(addr string, err error) {
			b.logf("follower %s dropped from replication: %v", addr, err)
		})
	}
	rp := b.repl
	b.replGate.Unlock()
	for _, addr := range addrs {
		if slices.Contains(rp.Followers(), addr) {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, replicaAckTimeout)
		err := rp.Attach(actx, addr, b.m.catchupCut)
		cancel()
		switch {
		case err == nil:
			b.logf("follower %s caught up and attached", addr)
		case must:
			return err
		default:
			b.logf("follower %s unreachable at open: %v", addr, err)
		}
	}
	b.renewTick(ctx)
	return nil
}

// replicator snapshots the replication handle under the gate (a live
// handoff may install one on a standalone source mid-serve).
func (b *serveBackend) replicator() *rpc.Replicator {
	b.replGate.RLock()
	defer b.replGate.RUnlock()
	return b.repl
}

// writable reports whether this backend currently accepts mutations: only
// while its Holder leads. The refusal travels typed — a backend that never
// led since start is a follower (ErrNotPrimary: dial its primary or promote
// it); one that led and lapsed or was deposed is stale (ErrStaleEpoch: the
// lease moved). The client treats both alike and seeks the current leader.
//
// The feed paths ask twice: up front, and again inside the mine closure,
// which runs under the replicator's stream lock, where a concurrent lease
// transfer's commit is serialized — so a feed admitted before the transfer
// committed aborts there, before mining, before shipping, and the refusal
// is safe to retry against the new leader (the record was definitely not
// applied anywhere).
func (b *serveBackend) writable() error {
	if b.holder.Leading() {
		return nil
	}
	term, _ := b.holder.Current()
	switch {
	case !b.holder.Led():
		return fmt.Errorf("%w: this farmerd is a replication follower; dial its primary or promote it", rpc.ErrNotPrimary)
	case term.Leader != b.holder.Self():
		return fmt.Errorf("%w: lease epoch %d is held by %q", rpc.ErrStaleEpoch, term.Epoch, term.Leader)
	}
	return fmt.Errorf("%w: this farmerd's lease lapsed at epoch %d (renewal quorum lost?)", rpc.ErrStaleEpoch, term.Epoch)
}

// replicaAckTimeout bounds one follower's ack on the replication stream and
// each attach of a follower (dial, hello, catch-up verdict). A follower that
// is connected but wedged — stopped process, stuck disk — would otherwise
// block every client write forever, since only a transport error detaches
// it; when the bound expires the follower is dropped like a dead one. A
// variable only so tests can shorten it.
var replicaAckTimeout = 30 * time.Second

// saveBudgetFloor is the least a routine checkpoint is given (see
// ServeConfig.DrainTimeout). A variable only so tests can shorten it.
var saveBudgetFloor = time.Minute

// budgetCheckStride is how many ingested records a tenant goes between
// memory-budget rechecks: Stats walks every tracked file, so a per-feed
// check would make ingestion quadratic. A variable only so tests can force
// a check on small feeds.
var budgetCheckStride int64 = 4096

// admit is the feed-path half of tenant admission control: it refuses the
// batch with an error wrapping ErrTenantBudget (CodeTenantBudget on the
// wire) once the tenant's model footprint exceeds its budget. The check is
// throttled to every budgetCheckStride records — the cap is enforced at
// stride granularity, trading exactness for a non-quadratic hot path — and
// an over-budget tenant keeps rechecking, so a Load that shrinks the model
// readmits it.
func (b *serveBackend) admit(n int) error {
	if b.budget.MaxMemoryBytes <= 0 {
		return nil
	}
	if b.memPending.Add(int64(n)) < budgetCheckStride && !b.overBudget.Load() {
		return nil
	}
	b.memPending.Store(0)
	mem := b.m.sm.Stats().MemoryBytes
	if mem > b.budget.MaxMemoryBytes {
		b.overBudget.Store(true)
		return fmt.Errorf("%w: tenant %q model holds %d bytes, budget caps it at %d",
			rpc.ErrTenantBudget, b.tenant, mem, b.budget.MaxMemoryBytes)
	}
	b.overBudget.Store(false)
	return nil
}

func (b *serveBackend) Feed(r *trace.Record) error {
	if err := b.writable(); err != nil {
		return err
	}
	if err := b.admit(1); err != nil {
		return err
	}
	b.replGate.RLock()
	defer b.replGate.RUnlock()
	if b.repl == nil {
		b.m.sm.Feed(r)
		return nil
	}
	return b.repl.Ingest(context.Background(), []trace.Record{*r}, func() error {
		if err := b.writable(); err != nil { // the re-check under the stream lock
			return err
		}
		b.m.sm.Feed(r)
		return nil
	})
}

func (b *serveBackend) FeedBatch(recs []trace.Record) error {
	if err := b.writable(); err != nil {
		return err
	}
	if err := b.admit(len(recs)); err != nil {
		return err
	}
	b.replGate.RLock()
	defer b.replGate.RUnlock()
	if b.repl == nil {
		b.m.sm.FeedBatch(recs)
		return nil
	}
	return b.repl.Ingest(context.Background(), recs, func() error {
		if err := b.writable(); err != nil { // the re-check under the stream lock
			return err
		}
		b.m.sm.FeedBatch(recs)
		return nil
	})
}

func (b *serveBackend) Predict(f FileID, k int) []FileID     { return b.m.sm.Predict(f, k) }
func (b *serveBackend) CorrelatorList(f FileID) []Correlator { return b.m.sm.CorrelatorList(f) }
func (b *serveBackend) Stats() core.Stats                    { return b.m.sm.Stats() }

// TenantObs implements rpc.ObsBackend: the miner's observability row plus
// the replication half only this layer knows — follower count and the
// worst per-follower lag (primary position minus acked position).
func (b *serveBackend) TenantObs(topK int) rpc.TenantObs {
	row := b.m.obsRow(topK)
	term, _ := b.holder.Current()
	row.LeaseEpoch = term.Epoch
	if repl := b.replicator(); repl != nil {
		lags := repl.Lags()
		row.Followers = uint64(len(lags))
		for _, l := range lags {
			if l.Lag > row.ReplLagMax {
				row.ReplLagMax = l.Lag
			}
		}
	}
	return row
}

// saveCtx bounds a routine checkpoint. The budget is generous (see
// ServeConfig.DrainTimeout) — slow is fine, wedged is not: these saves run
// on the serve loop, and an unbounded hang there would also make the
// eventual drain unreachable.
func (b *serveBackend) saveCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), b.saveBudget)
}

func (b *serveBackend) Save() error {
	ctx, cancel := b.saveCtx()
	defer cancel()
	return b.m.Save(ctx)
}

func (b *serveBackend) Load() error {
	if err := b.writable(); err != nil {
		return err
	}
	if b.replicator() != nil {
		return errors.New("farmer: cannot load a checkpoint into a replicating primary (restart it with -load instead)")
	}
	ctx, cancel := b.saveCtx()
	defer cancel()
	return b.m.Load(ctx)
}

// ------------------------------------------------------- replication surface

// Promote makes this backend take the next epoch on a client's (or
// farmerctl's) request. On the leader it is an idempotent no-op.
func (b *serveBackend) Promote() error {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	if b.holder.Led() {
		// The leader answers nil. A deposed or lapsed one answers its typed
		// stale refusal: it must not tell a failover sweep "success" (the
		// sweep would steer writes right back at it), nor re-take an epoch
		// its successor may already hold — it restarts to re-join.
		return b.writable()
	}
	if b.srcConn != 0 {
		return fmt.Errorf("%w: refusing promotion, the primary's replication link is live", rpc.ErrNotPrimary)
	}
	// Acquire refuses while another leader's timed lease is still live: a
	// reachable-but-disconnected primary cannot be contradicted early.
	term, err := b.holder.Acquire()
	if err != nil {
		return fmt.Errorf("%w: refusing promotion: %v", rpc.ErrNotPrimary, err)
	}
	b.logf("promoted: leading at epoch %d, accepting writes from now on", term.Epoch)
	return nil
}

// ------------------------------------------------------------ lease surface

// LeaseStatus implements rpc.LeaseBackend: the backend's current term, TTL
// (0 = untimed) and whether it is this daemon's own live lease — the answer
// the client's failover sweep ranks candidates by.
func (b *serveBackend) LeaseStatus() rpc.LeaseInfo {
	term, _ := b.holder.Current()
	return rpc.LeaseInfo{
		Epoch:  term.Epoch,
		Leader: term.Leader,
		TTLMS:  uint64(b.holder.TTL() / time.Millisecond),
		Self:   b.holder.Leading(),
	}
}

// LeaseVote decides a candidate's election request. Beyond the Holder's
// term algebra (the epoch must be new, the sitting lease lapsed), a
// follower whose primary replication link is still live withholds its
// vote: a primary it can hear from is not dead, whatever the candidate's
// clock says.
func (b *serveBackend) LeaseVote(epoch uint64, candidate string) error {
	if b.source() != 0 {
		return fmt.Errorf("farmer: vote for %q withheld, the primary's replication link is live", candidate)
	}
	if err := b.holder.Vote(epoch, candidate); err != nil {
		return err
	}
	b.logf("lease: voted for %q at epoch %d", candidate, epoch)
	return nil
}

// LeaseGrant folds a leader's announced term in. Every grant must arrive on
// the pinned replication link. Term announcements (at attach, and every
// renewal under a TTL) just refresh this follower's view; refusing one as
// stale is how a deposed leader learns it lost. A TRANSFER grant — the last
// frame of a live handoff, FIFO behind every record the source acked —
// makes this follower the leader of the new epoch on the spot.
func (b *serveBackend) LeaseGrant(conn uint64, info rpc.LeaseInfo) error {
	if src := b.source(); src == 0 || src != conn {
		return errors.New("farmer: lease grant outside the pinned replication link")
	}
	if !info.Transfer {
		return b.holder.Observe(lease.Term{Epoch: info.Epoch, Leader: info.Leader})
	}
	if b.holder.TTL() <= 0 {
		return errors.New("farmer: lease transfer to a farmerd without a lease TTL (start the target with -lease-ttl)")
	}
	// Adopt the transferred epoch with SELF as leader (the source's name for
	// this node is its dial address, which may not match the listener
	// address this node names itself by textually).
	// The epoch is strictly above everything observed on this link, so the
	// Observe cannot fail.
	if err := b.holder.Observe(lease.Term{Epoch: info.Epoch, Leader: b.holder.Self()}); err != nil {
		return err
	}
	b.logf("lease transferred: leading at epoch %d, accepting writes", info.Epoch)
	return nil
}

// Handoff implements rpc.HandoffBackend (`farmerctl rebalance`): ship this
// daemon's state to the target over the existing catch-up machinery, then
// hand it the lease. The transfer grant is started on the target's
// replication connection UNDER the stream lock — FIFO behind every record
// this source ever acked — and the source is marked stale in the same
// critical section, so a feed racing the handoff either lands before the
// grant (the target replays it) or aborts typed (ErrStaleEpoch, never
// mined anywhere): acked-record loss is zero by construction.
func (b *serveBackend) Handoff(target string) error {
	if b.holder.TTL() <= 0 {
		// A safety check, not a mode: untimed, no election exists to recover
		// from a SIGKILL between the source's commit and the target's ack.
		return errors.New("farmer: live handoff needs a lease TTL (start this farmerd with -lease-ttl)")
	}
	if b.tenant != "" {
		return errors.New("farmer: rebalance moves the whole daemon; address it without -tenant")
	}
	if err := b.writable(); err != nil {
		return err
	}
	start := time.Now()
	if rp := b.replicator(); rp != nil {
		for _, addr := range rp.Followers() {
			if addr != target {
				return fmt.Errorf("farmer: refusing handoff to %s while also replicating to %s (the stream cannot split leaders)", target, addr)
			}
		}
	}
	if err := b.lease.replicate(context.Background(), b, []string{target}, true); err != nil {
		return err
	}
	rp := b.replicator()
	term, _ := b.holder.Current()
	next := lease.Term{Epoch: term.Epoch + 1, Leader: target}
	info := rpc.LeaseInfo{Epoch: next.Epoch, Leader: target, TTLMS: uint64(b.holder.TTL() / time.Millisecond)}
	err := rp.TransferLease(context.Background(), target, info, func() {
		// Commit, under the stream lock: observing the next epoch with the
		// target as leader deposes this source. next.Epoch is strictly above
		// everything this holder observed, so the Observe cannot fail.
		_ = b.holder.Observe(next)
	})
	if err != nil {
		return err
	}
	b.lease.handoffs.Inc()
	b.lease.handoffNS.Observe(uint64(time.Since(start)))
	b.logf("handoff: lease transferred to %s at epoch %d in %v; this farmerd now refuses writes",
		target, next.Epoch, time.Since(start).Round(time.Millisecond))
	return nil
}

// ------------------------------------------------------- lease renewal loop

// leaseLoop drives the daemon's timed lease at TTL/4: a backend that has
// led renews its term (through the replication stream when followers are
// configured; a deposed or handed-off one has nothing left to renew), one
// that never led elects itself once its view of the lease lapsed. Runs on
// the default tenant's backend until ctx is done.
func (b *serveBackend) leaseLoop(ctx context.Context) {
	t := time.NewTicker(max(b.holder.TTL()/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if b.holder.Led() {
			b.renewTick(ctx)
		} else {
			b.electTick(ctx)
		}
	}
}

// renewTick announces the leader's term to its followers and extends it.
// With configured followers the renewal is a MsgLeaseGrant broadcast on the
// replication stream needing a quorum of acks, so a partitioned leader
// LAPSES within one TTL and starts refusing writes typed — the split-brain
// rule: with a TTL, safety beats availability. A refusal as stale means a
// higher epoch exists somewhere; the leader deposes itself immediately.
func (b *serveBackend) renewTick(ctx context.Context) {
	h, ls := b.holder, b.lease
	term, _ := h.Current()
	if term.Leader != h.Self() || h.Deposed() {
		return // deposed, or handed off: this daemon no longer renews
	}
	rp := b.replicator()
	if rp == nil || ls.renewQuorum == 0 {
		_ = h.Renew()
		return
	}
	info := rpc.LeaseInfo{Epoch: term.Epoch, Leader: term.Leader, TTLMS: uint64(h.TTL() / time.Millisecond)}
	// A timed renewal is worthless past its TTL; an untimed announcement is
	// bounded by the replicator's per-follower ack timeout alone.
	rctx, cancel := ctx, context.CancelFunc(func() {})
	if h.TTL() > 0 {
		rctx, cancel = context.WithTimeout(ctx, h.TTL())
	}
	acked, stale := rp.RenewLease(rctx, info)
	cancel()
	switch {
	case stale:
		h.Depose()
		b.logf("lease: renewal refused as stale, a higher epoch exists; deposed, refusing writes")
	case acked >= ls.renewQuorum:
		_ = h.Renew()
	default:
		b.logf("lease: renewal acked by %d/%d followers, quorum not met; a timed lease will lapse", acked, ls.renewQuorum)
	}
}

// electTick is follower self-election: once a leader was observed (epoch >
// 0), its lease lapsed, and its replication link is gone, the follower
// asks each configured peer to vote it the next epoch; with a majority of
// peer votes (none needed without peers — the two-node deployment) it
// acquires the term and serves writes. No farmerctl promote involved.
func (b *serveBackend) electTick(ctx context.Context) {
	term, remaining := b.holder.Current()
	if b.source() != 0 || term.Epoch == 0 || remaining > 0 {
		return
	}
	next := term.Epoch + 1
	votes := 0
	for _, peer := range b.lease.peers {
		if b.voteFrom(ctx, peer, next) {
			votes++
		}
	}
	if need := (1 + len(b.lease.peers)) / 2; votes < need {
		b.logf("lease: election for epoch %d got %d/%d peer votes; retrying", next, votes, need)
		return
	}
	won, err := b.holder.Acquire()
	if err != nil {
		b.logf("lease: election for epoch %d lost: %v", next, err)
		return
	}
	b.logf("lease: elected at epoch %d after the leader's lease lapsed; accepting writes", won.Epoch)
}

// voteFrom asks one peer for its vote. Any failure — unreachable peer, a
// stale refusal, a peer that heard from the sitting leader more recently —
// is a withheld vote, never fatal: the next tick retries.
func (b *serveBackend) voteFrom(ctx context.Context, peer string, epoch uint64) bool {
	vctx, cancel := context.WithTimeout(ctx, b.holder.TTL())
	defer cancel()
	c, err := rpc.DialWith(vctx, peer, b.lease.dialOpts)
	if err != nil {
		return false
	}
	defer c.Close()
	return c.LeaseVote(vctx, epoch, b.holder.Self()) == nil
}

// source reports the pinned primary link's connection id (0 = none).
func (b *serveBackend) source() uint64 {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	return b.srcConn
}

// pinSource admits conn as this backend's replication source. Only a
// backend that has never led accepts a primary: a promoted follower or a
// deposed source still has to restart to re-join. Pinning before the
// install is safe — the connection is serial, so no replicate frame can
// race it, and any other connection's catch-up is refused here.
func (b *serveBackend) pinSource(conn uint64) error {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	if b.holder.Led() {
		return errors.New("farmer: this farmerd has led (a primary, or a promoted follower) and refuses a new primary; restart it with -follow to re-join as a follower")
	}
	if b.srcConn != 0 && b.srcConn != conn {
		return errors.New("farmer: already following a primary on another connection")
	}
	b.srcConn = conn
	return nil
}

// unpinSource releases the primary link if conn is it, and reports whether
// it was. Untimed, the observed term ends with the link that delivered it
// (Holder.LinkLost) — that is the whole of "lease-less" semantics.
func (b *serveBackend) unpinSource(conn uint64) bool {
	b.fmu.Lock()
	defer b.fmu.Unlock()
	if b.srcConn != conn {
		return false
	}
	b.srcConn = 0
	b.holder.LinkLost()
	return true
}

func (b *serveBackend) Catchup(conn uint64, cut rpc.CatchupCut) error {
	if err := b.pinSource(conn); err != nil {
		return err
	}
	if err := b.m.applyCatchup(cut); err != nil {
		b.unpinSource(conn)
		return err
	}
	b.logf("caught up from primary at position %d (%d files)", cut.Pos, cut.FileCount)
	return nil
}

// CatchupDelta applies one chunk of a primary's delta catch-up: replay the
// missed records through the miner and, on the final chunk, verify the
// primary's fingerprint against the replayed state. The source-connection
// pinning mirrors Catchup; on any error the pin is released so the
// primary's fallback — a full cut, usually on a fresh connection — is not
// refused as a second primary.
func (b *serveBackend) CatchupDelta(conn uint64, d rpc.CatchupDelta) error {
	if err := b.pinSource(conn); err != nil {
		return err
	}
	if err := b.m.applyCatchupDelta(d); err != nil {
		b.unpinSource(conn)
		return err
	}
	if d.Final {
		b.logf("caught up from primary by delta replay to position %d (%d files)",
			d.FromPos+uint64(len(d.Records)), d.FileCount)
	}
	return nil
}

// replicated guards one replication-stream frame: right source connection,
// right stream position.
func (b *serveBackend) replicated(conn uint64, pos uint64) error {
	if src := b.source(); src == 0 || src != conn {
		return errors.New("farmer: replication frame from a connection that has not caught this follower up")
	}
	if fed := b.m.sm.Fed(); fed != pos {
		return fmt.Errorf("farmer: replication stream position %d does not match follower position %d (gap or reorder)", pos, fed)
	}
	return nil
}

func (b *serveBackend) Replicate(conn uint64, pos uint64, recs []trace.Record) error {
	if err := b.replicated(conn, pos); err != nil {
		return err
	}
	b.m.sm.FeedBatch(recs)
	return nil
}

func (b *serveBackend) ConnClosed(conn uint64) {
	if b.unpinSource(conn) {
		b.logf("primary replication link lost; this follower is now promotable")
	}
}

// Serve puts a local miner on the wire: it serves the FARMER rpc protocol
// on lis until ctx is cancelled, then drains gracefully — in-flight
// requests finish, responses flush, and (when a miner has a store) a
// final checkpoint is written. With cfg.ReplicateTo it serves as a
// replication primary, with cfg.Follower as a promotable follower, with
// cfg.Tenants as a multi-tenant daemon whose Registry opens one miner per
// tenant on demand (m serves the default tenant either way). It blocks for
// the duration and returns the first serve, checkpoint,
// replication-bootstrap, or drain error. This is the serving loop behind
// cmd/farmerd.
func Serve(ctx context.Context, lis net.Listener, m *LocalMiner, cfg ServeConfig) error {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Follower && len(cfg.ReplicateTo) > 0 {
		return errors.New("farmer: a follower cannot replicate onward (chained replication is not supported)")
	}
	if cfg.LeaseTTL <= 0 && len(cfg.LeasePeers) > 0 {
		return errors.New("farmer: LeasePeers without LeaseTTL (enable leases with -lease-ttl)")
	}
	saveBudget := max(cfg.DrainTimeout, cfg.Checkpoint, saveBudgetFloor)
	// A daemon names itself in lease terms and election votes by its
	// listener address: that is what lets the client's failover sweep match
	// a LeaseStatus leader to a dial address.
	id := lis.Addr().String()
	leaseSt := &leaseState{
		holder:      newHolder(id, max(cfg.LeaseTTL, 0), cfg.Follower),
		peers:       cfg.LeasePeers,
		dialOpts:    rpc.DialOptions{Token: cfg.ReplicaToken},
		renewQuorum: (1 + len(cfg.ReplicateTo)) / 2,
	}
	backend := &serveBackend{m: m, saveBudget: saveBudget, logf: cfg.Logf, holder: leaseSt.holder, lease: leaseSt}
	if !cfg.Follower {
		cfg.Logf("lease: leading at epoch 1 (id %s, ttl %v)", id, leaseSt.holder.TTL())
	}
	reg := newRegistry(cfg, saveBudget, leaseSt)
	reg.registerDefault(m, backend)
	defer reg.closeReplicators()
	if len(cfg.ReplicateTo) > 0 {
		// Followers must be reachable at startup.
		if err := leaseSt.replicate(ctx, backend, cfg.ReplicateTo, true); err != nil {
			return err
		}
	}
	if cfg.Obs != nil {
		m.attachMetrics(cfg.Obs)
		if repl := backend.replicator(); repl != nil {
			cfg.Obs.GaugeEach("farmer_repl_lag_records", func(emit obs.EmitFunc) {
				for _, l := range repl.Lags() {
					emit([]obs.Label{obs.L("follower", l.Addr)}, float64(l.Lag))
				}
			})
			cfg.Obs.GaugeFunc("farmer_repl_followers", func() float64 { return float64(len(repl.Lags())) })
		}
		cfg.Obs.GaugeFunc("farmer_lease_epoch", func() float64 {
			term, _ := leaseSt.holder.Current()
			return float64(term.Epoch)
		})
		leaseSt.handoffs = cfg.Obs.Counter("farmer_handoffs_total")
		leaseSt.handoffNS = cfg.Obs.Histogram("farmer_handoff_duration_ns")
	}
	srv := rpc.NewResolverServer(reg, rpc.ServerOptions{AuthTokens: cfg.AuthTokens, Obs: cfg.Obs})
	if cfg.TLS != nil {
		lis = tls.NewListener(lis, cfg.TLS)
	}

	if cfg.LeaseTTL > 0 {
		// Cancel on return, not just on ctx: the listener-failure path must
		// not leave the renewal loop running through the drain.
		lctx, stopLease := context.WithCancel(ctx)
		defer stopLease()
		go backend.leaseLoop(lctx)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	var tick <-chan time.Time
	if cfg.Checkpoint > 0 && (m.store != nil || (cfg.Tenants != nil && cfg.Tenants.Dir != "")) {
		ticker := time.NewTicker(cfg.Checkpoint)
		defer ticker.Stop()
		tick = ticker.C
	}
	var evict <-chan time.Time
	if cfg.Tenants != nil && cfg.Tenants.IdleAfter > 0 {
		period := max(cfg.Tenants.IdleAfter/4, 10*time.Millisecond)
		evicter := time.NewTicker(period)
		defer evicter.Stop()
		evict = evicter.C
	}

	// drain shuts the server down, writes every tenant's final checkpoint,
	// and folds any earlier checkpoint error in — shared by the ctx-cancel
	// path and the listener-failure path, so mined state is never lost to
	// either. The drain context bounds BOTH halves: a hung store write
	// counts against the same DrainTimeout as the connection drain.
	var ckptErr error
	drain := func(cause error) error {
		dctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(dctx)
		// Flush every replication stream before the final checkpoints so a
		// clean shutdown leaves every follower holding everything the
		// primary acked.
		reg.closeReplicators()
		if serr := reg.drainAll(dctx); serr != nil && err == nil {
			err = serr
		}
		if cause != nil {
			return cause
		}
		if err == nil {
			err = ckptErr
		}
		return err
	}
	for {
		select {
		case <-tick:
			err := reg.checkpointAll()
			if err != nil && ckptErr == nil {
				ckptErr = err
			}
		case <-evict:
			reg.evictIdle()
		case err := <-serveErr:
			// Listener failure without a shutdown: drain the open
			// connections and checkpoint anyway, then surface the cause.
			return drain(err)
		case <-ctx.Done():
			err := drain(nil)
			<-serveErr
			return err
		}
	}
}
