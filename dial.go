package farmer

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"farmer/internal/rpc"
)

// RemoteMiner is a Miner served by one or more farmerd processes reached
// over the wire protocol (internal/rpc): every call is a pipelined request
// on one connection, so concurrent callers share the link without
// head-of-line blocking on each other's round trips. Mined degrees cross
// the wire as exact float64 bit patterns — a remote miner fingerprints
// identically to the local miner it serves.
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
// the caller resumes exactly by reading Stats().Fed — the survivor's record
// count, exact because a server acks nothing it has not mined — and
// re-sending from that record. A write refused with ErrNotPrimary was
// definitely not applied, so that one IS retried internally after the
// promotion sweep. Reads always retry.
type RemoteMiner struct {
	addrs       []string
	opts        rpc.DialOptions // tenant binding, token, TLS — re-applied on every redial
	ackN        int             // WithAckWindow: in-flight feed frames (<= 1 = synchronous)
	ackAdaptive bool            // WithAckWindow(0): self-tuning window, 1..adaptive max

	mu     sync.Mutex
	c      *rpc.Client // current connection, nil after a drop
	cur    int         // index into addrs of the current connection
	closed bool

	// The windowed-feed state (WithAckWindow): one ack window per
	// connection, recreated whenever the connection changes so a stale
	// window can never resolve acks against a replaced client.
	win  *rpc.AckWindow
	winC *rpc.Client // the connection win was created on
}

var _ Miner = (*RemoteMiner)(nil)

// DialOption configures Dial.
type DialOption func(*dialConfig) error

type dialConfig struct {
	failover    []string
	opts        rpc.DialOptions
	ackWindow   int
	ackAdaptive bool
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

// WithAckWindow(n), for n >= 2, puts the client's Feed and FeedBatch into
// windowed-ack mode: up to n frames stay in flight on the pipelined
// connection and their acks are resolved asynchronously, so a streaming
// feeder pays pipeline throughput instead of one round trip per acked call
// (the replication stream's ack-window machinery, applied client-side).
// n <= 1 keeps the default synchronous acked path.
//
// The acked-feed contract is preserved at a coarser barrier: a nil Feed
// means the record was handed to the window, and Flush is the barrier that
// makes every handed-over record mean what a synchronous ack means (on a
// replicated deployment: mined AND held by every live follower). On any
// failure the window poisons — the first failed ack is sticky, later Feeds
// fail fast without sending, and nothing is silently re-sent. The caller
// recovers exactly as from a synchronous in-doubt write: Flush (or the
// failed Feed) surfaces the first error, Stats().Fed on the recovered
// server is the exact resume point, and the stream is re-sent from there.
// Call Flush before Close to observe the final acks.
//
// WithAckWindow(0) selects the ADAPTIVE window: it starts at one frame in
// flight and grows toward an internal cap while reap round trips stay near
// the smoothed baseline, halving when one spikes past it — the right
// choice when the link's bandwidth-delay product is unknown.
func WithAckWindow(n int) DialOption {
	return func(dc *dialConfig) error {
		if n < 0 {
			return fmt.Errorf("farmer: WithAckWindow(%d): negative window", n)
		}
		if n == 0 {
			dc.ackAdaptive = true
		}
		dc.ackWindow = n
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
	m := &RemoteMiner{addrs: dc.failover, opts: dc.opts, ackN: dc.ackWindow, ackAdaptive: dc.ackAdaptive}
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

// ackWindow returns the current connection's ack window, connecting first
// if the last connection died. The window is recreated whenever the
// connection changed underneath it.
func (m *RemoteMiner) ackWindow(ctx context.Context) (*rpc.AckWindow, *rpc.Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, err := m.connLocked(ctx)
	if err != nil {
		return nil, nil, err
	}
	if m.win == nil || m.winC != c {
		if m.ackAdaptive {
			m.win = c.NewAdaptiveAckWindow(m.ackN)
		} else {
			m.win = c.NewAckWindow(m.ackN)
		}
		m.winC = c
	}
	return m.win, c, nil
}

// windowed runs one windowed-feed operation and, on failure, settles the
// window through flushWindow. The error always surfaces: frames acked before
// the failure may have been applied, so the stream is in doubt and nothing
// is re-sent here.
func (m *RemoteMiner) windowed(ctx context.Context, fn func(w *rpc.AckWindow) error) error {
	w, c, err := m.ackWindow(ctx)
	if err != nil {
		return err
	}
	if err := fn(w); err == nil {
		return nil
	}
	if err = m.flushWindow(ctx, w, c); err != nil {
		return err
	}
	// The operation failed but the drain saw only clean acks — a ctx expiry
	// inside the operation, typically. The stream is still in doubt (the
	// expired wait abandoned its ack), so report it.
	m.forgetWindow(w)
	if err = ctx.Err(); err == nil {
		err = rpc.ErrDisconnected
	}
	return err
}

// flushWindow collects w's in-flight acks and returns its first failure,
// after repositioning the client for the caller's resume-from-Stats().Fed
// replay: the poisoned window is discarded, a dead connection is dropped
// (the next call reconnects), and — because ErrNotPrimary or ErrStaleEpoch
// means the refused frames were definitely NOT applied — a best-effort
// promotion sweep runs so the replay lands on a writable server.
func (m *RemoteMiner) flushWindow(ctx context.Context, w *rpc.AckWindow, c *rpc.Client) error {
	err := w.Flush(ctx)
	if err == nil {
		return nil
	}
	m.forgetWindow(w)
	if errors.Is(err, rpc.ErrDisconnected) {
		m.drop(c)
	}
	if refusedUnapplied(err) {
		_ = m.seekWritable(ctx)
	}
	return err
}

// forgetWindow discards a poisoned window (if still current); the next
// windowed call builds a fresh one on whatever connection is current then.
func (m *RemoteMiner) forgetWindow(w *rpc.AckWindow) {
	m.mu.Lock()
	if m.win == w {
		m.win, m.winC = nil, nil
	}
	m.mu.Unlock()
}

// Flush is the windowed-ack barrier (WithAckWindow): it blocks until every
// in-flight feed frame is acked and returns the window's first failure,
// after which the caller resumes from Stats().Fed. On a miner without a
// window — or with nothing in flight — it returns nil immediately. Call it
// before Close to observe the final acks, and at every point where "fed"
// must mean "acked" (a checkpoint cut, a journal truncation).
func (m *RemoteMiner) Flush(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return rpc.ErrClientClosed
	}
	w, c := m.win, m.winC
	m.mu.Unlock()
	if w == nil {
		return nil
	}
	return m.flushWindow(ctx, w, c)
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
//
// Dialed WithAckWindow(n >= 2), Feed instead hands the record to the ack
// window — up to n frames stay in flight and a nil return means "accepted
// into the window"; Flush is the barrier that makes it mean "acked".
func (m *RemoteMiner) Feed(ctx context.Context, r *Record) error {
	if m.ackN > 1 || m.ackAdaptive {
		return m.windowed(ctx, func(w *rpc.AckWindow) error { return w.Feed(ctx, r) })
	}
	return m.do(ctx, false, func(c *rpc.Client) error { return c.Feed(ctx, r) })
}

// FeedBatch implements Miner: the whole batch travels as one frame (split
// only above the frame bound) and the server mines it with all shards in
// parallel before acking. Dialed WithAckWindow(n >= 2), the batch's frames
// ride the ack window like Feed's (see Flush).
func (m *RemoteMiner) FeedBatch(ctx context.Context, records []Record) error {
	if m.ackN > 1 || m.ackAdaptive {
		return m.windowed(ctx, func(w *rpc.AckWindow) error { return w.FeedBatch(ctx, records) })
	}
	return m.do(ctx, false, func(c *rpc.Client) error { return c.FeedBatch(ctx, records) })
}

// Predict implements Miner.
func (m *RemoteMiner) Predict(ctx context.Context, f FileID, k int) ([]FileID, error) {
	return read(ctx, m, func(c *rpc.Client) ([]FileID, error) { return c.Predict(ctx, f, k) })
}

// Stats implements Miner. After a failover, Stats().Fed on the promoted
// server is the exact-once resume point for callers replaying a journal.
func (m *RemoteMiner) Stats(ctx context.Context) (ModelStats, error) {
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

// BackupGroups asks the server to rebuild its replica groups over
// [0, fileCount) at the given correlation threshold and cut a group-atomic
// backup of every group (paper §4.3). On a replicating primary the cut is
// streamed to every follower at the same record boundary, so the returned
// fingerprint must match each follower's ReplicaGroups read.
func (m *RemoteMiner) BackupGroups(ctx context.Context, fileCount int, minDegree float64) (ReplicaGroupsInfo, error) {
	return m.groups(ctx, rpc.GroupsReq{FileCount: fileCount, MinDegree: minDegree})
}

// ReplicaGroups reads the server's current replica-group state without
// rebuilding or cutting — works against followers, which refuse the
// mutating BackupGroups.
func (m *RemoteMiner) ReplicaGroups(ctx context.Context) (ReplicaGroupsInfo, error) {
	return m.groups(ctx, rpc.GroupsReq{Read: true})
}

func (m *RemoteMiner) groups(ctx context.Context, req rpc.GroupsReq) (ReplicaGroupsInfo, error) {
	return read(ctx, m, func(c *rpc.Client) (ReplicaGroupsInfo, error) {
		gi, err := c.Groups(ctx, req)
		if err != nil {
			return ReplicaGroupsInfo{}, err
		}
		return ReplicaGroupsInfo{Fingerprint: gi.Fingerprint, Groups: gi.Groups, Versions: gi.Versions}, nil
	})
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
// footprint, tap and checkpoint health, replication lag, prediction
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
	m.win, m.winC = nil, nil
	m.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}
