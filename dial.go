package farmer

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/rpc"
)

// RemoteMiner is a Miner served by one or more farmerd processes reached
// over the wire protocol (internal/rpc): every call is a pipelined request
// on one connection, so concurrent callers share the link without
// head-of-line blocking on each other's round trips. A write is acked when
// it returns: Feed is one round trip per record, and a streaming caller
// buffers records and sends them with FeedBatch, whose nil return acks
// the whole batch. Mined degrees cross the wire as exact float64 bit
// patterns — a remote miner fingerprints identically to the local miner it
// serves.
//
// # Failover
//
// Dialed with several addresses — a primary and its replication followers
// (farmerd -replicate-to / -follow) — the client survives server loss: when
// a call fails with rpc.ErrDisconnected it redials the SAME address first
// (riding out a transient connection fault, which used to wedge the old
// single-connection client permanently), then the rest of the list. When a
// write is refused with rpc.ErrNotPrimary or rpc.ErrStaleEpoch — the server
// does not hold the write lease — the client sweeps the list (seekWritable):
// the live lease holder with the highest epoch answers promotion as a
// no-op, an orphaned follower takes the next epoch and the writes, and a
// follower whose primary link is still live refuses (the split-brain
// guard), leaving the connection serving reads. Only when the whole list
// is exhausted, and a bounded retry with it, does the call fail.
//
// Mutations are never silently re-sent across a connection loss: a Feed or
// FeedBatch interrupted by rpc.ErrDisconnected is IN DOUBT (the dying
// primary may have mined and replicated it without acking), so re-sending
// it could double-mine those records on the survivor. The call fails with
// the typed error while the client recovers the connection underneath;
// the caller resumes exactly by reading Stats().Fed and re-sending from that
// record. After an in-doubt write, Stats reads only from a server that takes
// writes, found by the same promotion sweep a write uses: a follower
// promotes only once its primary's link has closed, after the last frame it
// will ever be sent, so that server's Fed is final — no replicated frame can
// still raise it under the caller. While no server is writable (the old
// primary's link is still open), Stats returns an error, never a number;
// call it again. A write refused with ErrNotPrimary was definitely not
// applied, so that one IS retried internally after the promotion sweep.
// Reads always retry.
type RemoteMiner struct {
	addrs []string
	opts  rpc.DialOptions // tenant binding, token, TLS — re-applied on every redial

	mu     sync.Mutex
	c      *rpc.Client // current connection, nil after a drop
	cur    int         // index into addrs of the current connection
	closed bool

	inDoubt atomic.Bool // a write failed in doubt: Stats finds a writable server first
}

var _ Miner = (*RemoteMiner)(nil)

// DialOption configures Dial.
type DialOption func(*dialConfig) error

type dialConfig struct {
	failover []string
	opts     rpc.DialOptions
}

// WithTenant binds the client to one tenant: every frame it sends carries
// the tenant id, so the whole connection's traffic routes to that tenant's
// miner on a multi-tenant farmerd. The binding survives reconnect and
// failover — each redial re-binds before the first request. Empty (the
// default) addresses the server's default tenant.
func WithTenant(name string) DialOption {
	return func(dc *dialConfig) error {
		if err := rpc.ValidTenant(name); err != nil {
			return err
		}
		dc.opts.Tenant = name
		return nil
	}
}

// WithToken presents a bearer token in the connection hello — required
// against a farmerd running with -auth. Like the tenant binding, the token
// is re-presented on every reconnect and failover dial.
func WithToken(token string) DialOption {
	return func(dc *dialConfig) error {
		dc.opts.Token = token
		return nil
	}
}

// WithFailover appends addresses to the failover list: they are tried in
// order whenever the current connection dies (see RemoteMiner's failover
// contract).
func WithFailover(addrs ...string) DialOption {
	return func(dc *dialConfig) error {
		dc.failover = append(dc.failover, addrs...)
		return nil
	}
}

// WithDialTLS dials every address over TLS with the given configuration —
// the client half of farmerd -tls-cert/-tls-key.
func WithDialTLS(cfg *tls.Config) DialOption {
	return func(dc *dialConfig) error {
		dc.opts.TLS = cfg
		return nil
	}
}

// Dial connects to a farmerd at addr (or, when it is unreachable, the
// first reachable WithFailover address) and returns the remote miner. ctx
// bounds the connection attempts only; per-call deadlines come from the
// contexts passed to the Miner methods. A client dialed WithTenant or
// WithToken performs the connection hello, which authenticates, binds the
// tenant, and verifies the protocol version — against a pre-tenant farmerd
// it fails with an error matching ErrBadVersion.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*RemoteMiner, error) {
	if addr == "" {
		return nil, errors.New("farmer: Dial needs an address")
	}
	dc := dialConfig{failover: []string{addr}}
	for _, opt := range opts {
		if err := opt(&dc); err != nil {
			return nil, err
		}
	}
	m := &RemoteMiner{addrs: dc.failover, opts: dc.opts}
	if _, err := m.connLocked(ctx); err != nil { // nobody else holds m yet
		return nil, err
	}
	return m, nil
}

// failoverable reports whether an error means "this connection or server is
// done for, another server might do better": the transport died underneath
// us, an un-promoted follower refused a write, or a deposed leader refused
// it as stale-epoch (the lease moved; the new leader is elsewhere).
func failoverable(err error) bool {
	return errors.Is(err, rpc.ErrDisconnected) || refusedUnapplied(err)
}

// refusedUnapplied reports a write refusal that provably happened BEFORE
// any mining — an un-promoted follower, or a stale lease epoch (checked
// ahead of the mine, and re-checked under the stream lock) — so the write
// is safe to retry against another server even though it is a mutation.
func refusedUnapplied(err error) bool {
	return errors.Is(err, rpc.ErrNotPrimary) || errors.Is(err, rpc.ErrStaleEpoch)
}

// conn returns the current connection, establishing one if the last died:
// the dead address is retried first (transient-fault reconnect), then the
// rest of the list in order — pure connectivity, no role demands, so a
// reconnected client can keep reading from a follower. Callers that raced:
// the first through the mutex reconnects, the rest reuse its client.
func (m *RemoteMiner) conn(ctx context.Context) (*rpc.Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.connLocked(ctx)
}

func (m *RemoteMiner) connLocked(ctx context.Context) (*rpc.Client, error) {
	if m.closed {
		return nil, rpc.ErrClientClosed
	}
	if m.c != nil {
		return m.c, nil
	}
	var firstErr error // the current address's: Dial's addr, or the one that just died
	for i := range m.addrs {
		idx := (m.cur + i) % len(m.addrs)
		c, err := rpc.DialWith(ctx, m.addrs[idx], m.opts)
		if err == nil {
			m.c, m.cur = c, idx
			return c, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// seekWritableBound caps how long seekWritable keeps re-sweeping while the
// only refusals are transient ones. A second covers the window between a
// primary's death and its follower noticing the dead link.
const seekWritableBound = time.Second

// seekWritable finds a server that takes writes after one refused. Each
// sweep dials every address once (reusing the current connection), asks
// its LeaseStatus, and requests promotion: from the live self-leader with
// the highest epoch first — which keeps the sweep away from a reachable
// old primary that no longer holds the lease, however early its address is
// listed — then from the rest in address order, where an orphaned follower
// takes the next epoch and one whose primary is alive refuses (the
// split-brain guard). On success the writable connection becomes current;
// on failure the current (read-capable) connection is kept.
//
// It never reports success without a successful Promote (on the leader
// that is an idempotent no-op). A refusal with ErrNotPrimary — the
// primary's link is live, or its timed lease has not lapsed yet — may be a
// server that has not noticed its primary died, so the sweep repeats with
// backoff until seekWritableBound or ctx expires; any other outcome is
// final at once.
func (m *RemoteMiner) seekWritable(ctx context.Context) error {
	start, backoff := time.Now(), 10*time.Millisecond
	for {
		m.mu.Lock()
		transient, err := m.sweepLocked(ctx)
		m.mu.Unlock()
		if err == nil || !transient || time.Since(start)+backoff > seekWritableBound {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// sweepLocked is one pass of seekWritable, run under m.mu. transient
// reports that some server refused promotion with ErrNotPrimary.
func (m *RemoteMiner) sweepLocked(ctx context.Context) (transient bool, err error) {
	if m.closed {
		return false, rpc.ErrClientClosed
	}
	type bid struct {
		c    *rpc.Client
		idx  int
		rank uint64 // epoch of a live self-leader, 0 for everyone else
	}
	var bids []bid
	for i := range m.addrs {
		idx := (m.cur + i) % len(m.addrs)
		c := m.c
		if i > 0 || c == nil {
			if c, err = rpc.DialWith(ctx, m.addrs[idx], m.opts); err != nil {
				continue
			}
		}
		info, serr := c.LeaseStatus(ctx)
		if serr != nil {
			err = serr
			if c == m.c {
				m.c = nil // dead underneath us: the next pass, or call, redials it
			}
			c.Close()
			continue
		}
		b := bid{c: c, idx: idx}
		if info.Self {
			b.rank = info.Epoch
		}
		bids = append(bids, b)
	}
	defer func() { // whoever is not current by now was only a candidate
		for _, b := range bids {
			if b.c != m.c {
				b.c.Close()
			}
		}
	}()
	sort.SliceStable(bids, func(i, j int) bool { return bids[i].rank > bids[j].rank })
	for _, b := range bids {
		perr := b.c.Promote(ctx)
		if perr == nil {
			m.c, m.cur = b.c, b.idx
			return false, nil
		}
		err = perr
		transient = transient || errors.Is(perr, rpc.ErrNotPrimary)
	}
	if err == nil {
		// Unreachable while Dial demands an address, but the invariant is
		// the point: no nil without a Promote.
		err = fmt.Errorf("%w: no server accepted promotion", rpc.ErrNotPrimary)
	}
	return transient, err
}

// drop discards a connection observed failing (if it is still current).
func (m *RemoteMiner) drop(c *rpc.Client) {
	m.mu.Lock()
	if m.c == c {
		m.c = nil
	}
	m.mu.Unlock()
	c.Close()
}

// do runs one call with reconnect-and-failover: at most one attempt per
// configured address after the initial failure, so a dead cluster fails
// fast instead of retrying forever. retryDisconnected says whether the call
// may be re-sent after a connection loss: true for reads and idempotent
// calls, false for mutations, whose delivery is in doubt once the
// connection died mid-call (the connection is still recovered for the
// NEXT call; only the in-doubt send is not repeated).
func (m *RemoteMiner) do(ctx context.Context, retryDisconnected bool, fn func(c *rpc.Client) error) error {
	var lastErr error
	for attempt := 0; attempt <= len(m.addrs); attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := m.conn(ctx)
		if err != nil {
			// conn already swept every address; nothing left to try.
			return err
		}
		err = fn(c)
		if err == nil || !failoverable(err) {
			return err
		}
		lastErr = err
		if refusedUnapplied(err) {
			// The connection is healthy — the server just refuses writes
			// (un-promoted follower, or deposed leader), which also means it
			// did NOT apply this call: safe to retry even for mutations.
			// Find a writable server; if none exists (primary alive
			// elsewhere, or single-address client), surface the refusal and
			// keep the connection for reads.
			if werr := m.seekWritable(ctx); werr != nil {
				return err
			}
			continue
		}
		m.drop(c)
		if !retryDisconnected {
			// In doubt: reconnect happens on the caller's next call; this
			// one reports the loss so the caller can resume from
			// Stats().Fed instead of risking a double-mine.
			m.inDoubt.Store(true)
			return err
		}
	}
	return lastErr
}

// read runs one call that returns a value and may be re-sent after a
// connection loss (a read, or an idempotent command) through do.
func read[T any](ctx context.Context, m *RemoteMiner, call func(c *rpc.Client) (T, error)) (T, error) {
	var out T
	err := m.do(ctx, true, func(c *rpc.Client) (err error) {
		out, err = call(c)
		return err
	})
	return out, err
}

// Ping round-trips an empty frame and reports the wall-clock latency — the
// liveness probe behind `farmerctl ping`.
func (m *RemoteMiner) Ping(ctx context.Context) (time.Duration, error) {
	return read(ctx, m, func(c *rpc.Client) (time.Duration, error) { return c.Ping(ctx) })
}

// Feed implements Miner: one record, one acked round trip. On a replicated
// deployment the ack additionally means every live follower holds the
// record (see Serve), so an acked Feed survives the primary.
func (m *RemoteMiner) Feed(ctx context.Context, r *Record) error {
	return m.do(ctx, false, func(c *rpc.Client) error { return c.Feed(ctx, r) })
}

// FeedBatch implements Miner: the whole batch travels as one frame (split
// only above the frame bound) and the server mines it with all shards in
// parallel before acking, so a nil return acks every record.
func (m *RemoteMiner) FeedBatch(ctx context.Context, records []Record) error {
	return m.do(ctx, false, func(c *rpc.Client) error { return c.FeedBatch(ctx, records) })
}

// Predict implements Miner.
func (m *RemoteMiner) Predict(ctx context.Context, f FileID, k int) ([]FileID, error) {
	return read(ctx, m, func(c *rpc.Client) ([]FileID, error) { return c.Predict(ctx, f, k) })
}

// Stats implements Miner. After a write failed in doubt, it first finds a
// writable server (seekWritable) and reads there, so Fed is the exact-once
// resume point for callers replaying a journal; with no writable server it
// fails instead (see RemoteMiner's failover contract).
func (m *RemoteMiner) Stats(ctx context.Context) (ModelStats, error) {
	if m.inDoubt.Load() {
		if err := m.seekWritable(ctx); err != nil {
			return ModelStats{}, fmt.Errorf("farmer: no writable server to read a final resume point from: %w", err)
		}
		m.inDoubt.Store(false)
	}
	return read(ctx, m, func(c *rpc.Client) (ModelStats, error) { return c.Stats(ctx) })
}

// Save implements Miner: the server checkpoints into its own store.
func (m *RemoteMiner) Save(ctx context.Context) error {
	return m.do(ctx, true, func(c *rpc.Client) error { return c.Save(ctx) })
}

// Load implements Miner: the server restores from its own store.
func (m *RemoteMiner) Load(ctx context.Context) error {
	return m.do(ctx, true, func(c *rpc.Client) error { return c.Load(ctx) })
}

// CorrelatorList fetches f's full Correlator List with bit-exact degrees —
// the read the cross-process fingerprint tests use.
func (m *RemoteMiner) CorrelatorList(ctx context.Context, f FileID) ([]Correlator, error) {
	return read(ctx, m, func(c *rpc.Client) ([]Correlator, error) { return c.CorrelatorList(ctx, f) })
}

// LeaseStatus reports the CURRENT server's view of the cluster lease: the
// term (epoch + leader id), its TTL, and whether the answering server
// holds it. A farmerd without -lease-ttl reports its untimed term (TTLMS 0).
// Unlike writes, this deliberately does not failover past a reachable
// server — the point is to ask one server what it believes.
func (m *RemoteMiner) LeaseStatus(ctx context.Context) (LeaseInfo, error) {
	return read(ctx, m, func(c *rpc.Client) (LeaseInfo, error) { return c.LeaseStatus(ctx) })
}

// Handoff asks the current server — which must hold the lease — to ship
// its state to the farmerd at target over the catch-up machinery and
// transfer the lease to it, epoch+1: `farmerctl rebalance` on the wire.
// When it returns nil the target leads and the source refuses writes
// typed. Never re-sent across a connection loss — a half-run handoff is in
// doubt, and re-running against a source that already handed off fails
// with ErrStaleEpoch; probe LeaseStatus on the target to resolve it.
func (m *RemoteMiner) Handoff(ctx context.Context, target string) error {
	c, err := m.conn(ctx)
	if err != nil {
		return err
	}
	if err := c.Handoff(ctx, target); err != nil {
		if errors.Is(err, rpc.ErrDisconnected) {
			m.drop(c)
		}
		return err
	}
	return nil
}

// WireStats fetches the server's per-request-type wire latency table
// (count and summed nanoseconds per MsgType) — the read behind the
// `farmerctl top` latency columns.
func (m *RemoteMiner) WireStats(ctx context.Context) ([]WireStat, error) {
	return read(ctx, m, func(c *rpc.Client) ([]WireStat, error) { return c.WireStats(ctx) })
}

// TenantStatus is one live tenant on a farmerd: its id (empty = the
// default tenant) and a stats snapshot of its model.
type TenantStatus struct {
	Name  string
	Stats ModelStats
}

// Tenants lists the tenants live on the server — the read behind
// `farmerctl tenants`. Against a server with auth enabled, the listing is
// filtered to the tenants this client's token is granted.
func (m *RemoteMiner) Tenants(ctx context.Context) ([]TenantStatus, error) {
	return read(ctx, m, func(c *rpc.Client) ([]TenantStatus, error) {
		infos, err := c.Tenants(ctx)
		if err != nil {
			return nil, err
		}
		out := make([]TenantStatus, len(infos))
		for i, ti := range infos {
			out[i] = TenantStatus{Name: ti.Name, Stats: ti.Stats}
		}
		return out, nil
	})
}

// Obs fetches one observability row per tenant live on the server —
// footprint, prefetch queue and checkpoint health, replication lag, prediction
// accuracy, and each tenant's topK strongest correlated groups — the read
// behind `farmerctl top` and the extended `farmerctl tenants` columns.
// Against a server with auth enabled, the rows are filtered to the tenants
// this client's token is granted.
func (m *RemoteMiner) Obs(ctx context.Context, topK int) ([]TenantObs, error) {
	return read(ctx, m, func(c *rpc.Client) ([]TenantObs, error) { return c.Obs(ctx, topK) })
}

// Close drains outstanding calls and closes the connection. Idempotent.
func (m *RemoteMiner) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	c := m.c
	m.c = nil
	m.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}
