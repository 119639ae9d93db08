package farmer

// serve.go puts a LocalMiner on the wire: Serve's loop and serveBackend, one
// tenant's rpc backend. Every lease decision is its embedded lease runtime's
// (lease.go); this file holds the wire steps around them.

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"farmer/internal/core"
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
	// renews it every TTL/4 through a quorum — of its followers' acks on the
	// replication stream, or of the LeasePeers that elected it — so a
	// partitioned leader LAPSES within one TTL and refuses writes typed
	// (ErrStaleEpoch) instead of diverging, and a follower whose view of the
	// lease lapsed elects itself (votes from LeasePeers, then the next
	// epoch). 0 leaves the lease untimed, which is availability-wins: the
	// leader holds its epoch until the process ends, and a follower's view
	// of it ends with the replication link.
	LeaseTTL time.Duration
	// LeasePeers are the other farmerds asked to vote when this follower
	// elects itself or is promoted, and to vote its epoch again at every
	// renewal once it leads. Each needs (1+len(LeasePeers))/2 granted votes;
	// with no peers a follower elects alone — the two-node deployment.
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
// and carries the replication role state: a backend whose lease runtime
// leads takes writes, every one through its rpc.Replicator so attached
// followers see the exact acked stream; one that does not refuses them and,
// while it has never led, applies a primary's stream instead.
type serveBackend struct {
	*leaseRuntime
	m          *LocalMiner
	saveBudget time.Duration // routine-checkpoint bound (see ServeConfig.DrainTimeout)
	token      string        // ReplicaToken: dial lease voters with it

	// repl is this backend's replication stream for its whole life, built
	// over the miner's record count: with no follower attached it mines and
	// broadcasts to none. Followers attach at start, at a tenant's first
	// touch, or for a live handoff (replicate).
	repl *rpc.Replicator

	// tenant and budget carry the registry's admission control: feeds are
	// refused with ErrTenantBudget once the tenant's model footprint
	// clears budget.MaxMemoryBytes (default tenant: zero budget, unlimited).
	tenant     string
	budget     TenantBudget
	memPending atomic.Int64 // records since the last footprint check
	overBudget atomic.Bool

	handoffs  *obs.Counter   // farmer_handoffs_total (the daemon's backend)
	handoffNS *obs.Histogram // farmer_handoff_duration_ns
}

// newServeBackend serves m under the lease runtime rt, as rt's peers; do
// dials its followers (tenant stamped) and lease voters.
func newServeBackend(m *LocalMiner, rt *leaseRuntime, saveBudget time.Duration, do rpc.DialOptions) *serveBackend {
	b := &serveBackend{leaseRuntime: rt, m: m, saveBudget: saveBudget, token: do.Token}
	b.repl = rpc.NewReplicator(m.sm.Fed, replicaAckTimeout, do, m.catchupFingerprint, func(addr string, err error) {
		b.logf("follower %s dropped from replication: %v", addr, err)
	})
	rt.peers = replPeers{b}
	return b
}

var _ rpc.ReplicaBackend = (*serveBackend)(nil)
var _ rpc.LeaseBackend = (*serveBackend)(nil)
var _ rpc.HandoffBackend = (*serveBackend)(nil)

// replicate makes b stream to addrs — the one place a backend gains
// followers, at daemon start, at a tenant's first touch and for a live
// handoff alike. It catches up and attaches each address not yet on b's
// stream and announces b's term to the attached followers — TTL or not, so a
// follower always knows whose epoch it mirrors, and now rather than at the
// first renewal tick: a leader that dies inside that first TTL/4 would
// otherwise leave followers that never observed any lease, and a follower
// that has seen no epoch refuses to elect itself.
//
// Each attach (dial, hello, catch-up verdict) is bounded by
// replicaAckTimeout, like each ack on the stream: a follower that accepts
// and never answers must not hold the caller — which may hold the registry
// lock every frame of every tenant takes — forever.
// With must, the first failed attach is returned; without, it is logged and
// skipped (a tenant opening on a daemon that already serves: availability
// wins over replica count).
func (b *serveBackend) replicate(ctx context.Context, addrs []string, must bool) error {
	for _, addr := range addrs {
		if slices.Contains(b.repl.Followers(), addr) {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, replicaAckTimeout)
		err := b.repl.Attach(actx, addr, b.m.catchupCut)
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
	b.renew(ctx)
	return nil
}

// replPeers is a backend's leasePeers on the wire: a vote is a LeaseVote to
// the peer daemon (no tenant: with a TTL a daemon holds one lease) over a
// fresh dial, a renewal rides the backend's replication stream.
type replPeers struct{ b *serveBackend }

func (p replPeers) vote(ctx context.Context, peer string, epoch uint64, candidate string) error {
	c, err := rpc.DialWith(ctx, peer, rpc.DialOptions{Token: p.b.token})
	if err != nil {
		return err
	}
	defer c.Close()
	return c.LeaseVote(ctx, epoch, candidate)
}

func (p replPeers) renew(ctx context.Context, info rpc.LeaseInfo) (acked int, stale bool) {
	return p.b.repl.RenewLease(ctx, info)
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
	lags := b.repl.Lags()
	row.Followers = uint64(len(lags))
	for _, l := range lags {
		row.ReplLagMax = max(row.ReplLagMax, l.Lag)
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
	if len(b.repl.Followers()) > 0 {
		return errors.New("farmer: cannot load a checkpoint while followers are attached (restart the primary with -load instead)")
	}
	ctx, cancel := b.saveCtx()
	defer cancel()
	return b.m.Load(ctx)
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
	for _, addr := range b.repl.Followers() {
		if addr != target {
			return fmt.Errorf("farmer: refusing handoff to %s while also replicating to %s (the stream cannot split leaders)", target, addr)
		}
	}
	if err := b.replicate(context.Background(), []string{target}, true); err != nil {
		return err
	}
	info, commit := b.transfer(target)
	if err := b.repl.TransferLease(context.Background(), target, info, commit); err != nil {
		return err
	}
	b.handoffs.Inc()
	b.handoffNS.Observe(uint64(time.Since(start)))
	b.logf("handoff: lease transferred to %s at epoch %d in %v; this farmerd now refuses writes",
		target, info.Epoch, time.Since(start).Round(time.Millisecond))
	return nil
}

func (b *serveBackend) Catchup(conn uint64, cut rpc.CatchupCut) error {
	if err := b.pinSource(conn); err != nil {
		return err
	}
	if err := b.m.applyCatchup(cut); err != nil {
		b.ConnClosed(conn)
		return err
	}
	b.logf("caught up from primary at position %d (%d files)", cut.Pos, cut.FileCount)
	return nil
}

// CatchupDelta resumes this follower at the primary's position: the one
// frame a primary sends for that is final and carries no records, only the
// fingerprint this follower's state must match; any other frame is
// refused. The source-connection pinning mirrors Catchup; on any error the
// pin is released so the primary's fallback — a full cut, usually on a
// fresh connection — is not refused as a second primary.
func (b *serveBackend) CatchupDelta(conn uint64, d rpc.CatchupDelta) error {
	if !d.Final || len(d.Records) > 0 {
		return fmt.Errorf("farmer: a resume is one final frame with no records, got final=%v with %d records", d.Final, len(d.Records))
	}
	if err := b.pinSource(conn); err != nil {
		return err
	}
	if err := b.m.checkResume(d); err != nil {
		b.ConnClosed(conn)
		return err
	}
	b.logf("resumed from primary at position %d (%d files, fingerprint verified)", d.FromPos, d.FileCount)
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
	reg := newRegistry(m, id, cfg, saveBudget)
	backend := reg.def.backend
	if !cfg.Follower {
		cfg.Logf("lease: leading at epoch 1 (id %s, ttl %v)", id, backend.holder.TTL())
	}
	defer reg.closeReplicators()
	if len(cfg.ReplicateTo) > 0 {
		// Followers must be reachable at startup.
		if err := backend.replicate(ctx, cfg.ReplicateTo, true); err != nil {
			return err
		}
	}
	if cfg.Obs != nil {
		m.attachMetrics(cfg.Obs)
		cfg.Obs.GaugeEach("farmer_repl_lag_records", func(emit obs.EmitFunc) {
			for _, l := range backend.repl.Lags() {
				emit([]obs.Label{obs.L("follower", l.Addr)}, float64(l.Lag))
			}
		})
		cfg.Obs.GaugeFunc("farmer_repl_followers", func() float64 { return float64(len(backend.repl.Followers())) })
		cfg.Obs.GaugeFunc("farmer_lease_epoch", func() float64 {
			term, _ := backend.holder.Current()
			return float64(term.Epoch)
		})
		backend.handoffs = cfg.Obs.Counter("farmer_handoffs_total")
		backend.handoffNS = cfg.Obs.Histogram("farmer_handoff_duration_ns")
	}
	srv := rpc.NewResolverServer(reg, rpc.ServerOptions{AuthTokens: cfg.AuthTokens, Obs: cfg.Obs})
	if cfg.TLS != nil {
		lis = tls.NewListener(lis, cfg.TLS)
	}

	if cfg.LeaseTTL > 0 {
		// Renew or elect every TTL/4 until Serve returns (not just ctx: the
		// listener-failure path must not renew through the drain).
		lctx, stopLease := context.WithCancel(ctx)
		defer stopLease()
		go func() {
			t := time.NewTicker(max(cfg.LeaseTTL/4, 10*time.Millisecond))
			defer t.Stop()
			for {
				select {
				case <-lctx.Done():
					return
				case <-t.C:
					backend.tick(lctx)
				}
			}
		}()
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
