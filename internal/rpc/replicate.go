package rpc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/trace"
)

// Replicator is the primary half of farmerd replication: it owns the
// outbound replication stream to every attached follower. The stream
// position is the primary miner's record count, read through fed: the miner
// is the one counter both ends agree on.
//
// The contract with the serving layer is that EVERY mutation of the mined
// stream on a primary goes through Ingest, and a follower's state is that
// stream and nothing else: the mine runs under the replicator's lock, so the
// local mine, the position read and the enqueue onto each follower
// connection are one atomic step, and each follower connection — a FIFO
// channel, like every rpc connection — carries the exact stream the primary
// mined, in order. Whatever is derived from mined state (replica groups,
// predictions) is derived on each end, never shipped. With no follower
// attached, Ingest is the mine under the lock and nothing else.
// Acks are awaited OUTSIDE the lock, so followers add latency but the
// pipeline stays full.
//
// Ingest returns only after every live follower acked, which is what makes
// the serving layer's client ack mean "this record survives the primary":
// zero acked-record loss on primary failure, the §4.3 recoverability claim
// replication exists for.
//
// A follower whose connection fails is detached and reported through the
// lost callback; the primary keeps serving (availability wins over replica
// count — the operator restarts the follower, which bootstraps again via
// catch-up).
type Replicator struct {
	mu         sync.Mutex
	fed        func() uint64
	followers  []*replFollower
	ackTimeout time.Duration
	lost       func(addr string, err error)
	dialOpts   DialOptions
	fp         func() (fingerprint uint64, fileCount int)
}

type replFollower struct {
	addr string
	c    *Client
	// acked is the highest stream position this follower has acknowledged —
	// the subtrahend of the lag gauge (primary pos − acked pos). Updated by
	// whatever goroutine collects the ack, monotonically (awaits from
	// concurrent Ingest calls may observe acks out of order).
	acked atomic.Uint64
}

// ackTo raises the follower's acked position to pos (never lowers it).
func (f *replFollower) ackTo(pos uint64) {
	for {
		cur := f.acked.Load()
		if pos <= cur || f.acked.CompareAndSwap(cur, pos) {
			return
		}
	}
}

// FollowerLag is one attached follower's replication progress: the highest
// stream position it acked and how many records it trails the primary by.
// A caught-up follower reports Lag 0.
type FollowerLag struct {
	Addr  string
	Acked uint64
	Lag   uint64
}

// Lags samples every attached follower's replication lag — the read behind
// the farmer_repl_lag_records gauge and the MsgObs ReplLagMax field.
func (r *Replicator) Lags() []FollowerLag {
	r.mu.Lock()
	defer r.mu.Unlock()
	pos := r.fed()
	out := make([]FollowerLag, len(r.followers))
	for i, f := range r.followers {
		acked := f.acked.Load()
		var lag uint64
		if pos > acked {
			lag = pos - acked
		}
		out[i] = FollowerLag{Addr: f.addr, Acked: acked, Lag: lag}
	}
	return out
}

// NewReplicator creates a replicator over the primary miner whose record
// count fed reads: every position the stream ships, attaches at and lags
// behind is fed's answer under the stream lock. ackTimeout (> 0) bounds the
// wait for one follower's ack: a follower that is connected but wedged — its
// process stopped, its disk stuck — never produces a transport error, and
// without the bound it would block every Ingest (and therefore every client
// write on the primary) forever; when the bound expires the follower is
// detached like a dead one. opts dial every follower Attach adds: a
// tenant-bound replicator stamps its tenant id on every catch-up and
// replication frame (the follower reassembles per-tenant streams from
// per-tenant connections), and the token authenticates against a follower
// running with -auth. fp is consulted under the stream lock when a
// restarted follower at the primary's position is offered a resume and
// returns the primary's current state fingerprint and tracked-file bound;
// the follower verifies it against its own state, so a resume ends with the
// same state guarantee as a full cut. lost, if non-nil, is called once for
// each follower dropped after a replication failure.
func NewReplicator(fed func() uint64, ackTimeout time.Duration, opts DialOptions, fp func() (fingerprint uint64, fileCount int), lost func(addr string, err error)) *Replicator {
	return &Replicator{fed: fed, ackTimeout: ackTimeout, dialOpts: opts, fp: fp, lost: lost}
}

// Followers reports the attached follower addresses.
func (r *Replicator) Followers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := make([]string, len(r.followers))
	for i, f := range r.followers {
		addrs[i] = f.addr
	}
	return addrs
}

// Attach dials a follower, catches it up and adds it to the live stream. A
// follower already at the primary's position is offered a resume first; any
// other, or one that refuses the resume, gets a checkpoint of the primary's
// state cut and shipped as MsgCatchup. cut runs under the replicator's lock —
// the stream is quiescent while the checkpoint is taken, so the cut and the
// attach are atomic: no record can slip between the snapshot and the first
// replicated frame. The returned error covers dialing, cutting and the
// follower's verification of the cut.
func (r *Replicator) Attach(ctx context.Context, addr string, cut func() (CatchupCut, error)) error {
	c, err := DialWith(ctx, addr, r.dialOpts)
	if err != nil {
		return fmt.Errorf("rpc: attaching follower %s: %w", addr, err)
	}
	done, sent := r.attachResume(ctx, addr, c)
	if done {
		return nil
	}
	if sent {
		// The follower refused the resume (its state does not match the
		// fingerprint, or it cannot resume): fall back to the full cut on a
		// fresh connection.
		c.Close()
		if c, err = DialWith(ctx, addr, r.dialOpts); err != nil {
			return fmt.Errorf("rpc: attaching follower %s: %w", addr, err)
		}
	}
	// Offer inapplicable (a fresh follower, or one at another position):
	// nothing was sent, the same connection carries the full cut.
	r.mu.Lock()
	cc, err := cut()
	if err != nil {
		r.mu.Unlock()
		c.Close()
		return fmt.Errorf("rpc: attaching follower %s: cutting checkpoint: %w", addr, err)
	}
	// A snapshot bigger than one frame ships as MsgCatchupChunk frames plus
	// a final MsgCatchup carrying the tail — the same FIFO connection
	// reassembles them in order, so a model of any size can bootstrap a
	// follower (MaxFrame bounds one frame, not the transfer).
	w := window{c: c}
	tail := cc
	for len(tail.Snapshot) > maxCatchupChunk {
		_ = w.start(MsgCatchupChunk, tail.Snapshot[:maxCatchupChunk])
		tail.Snapshot = tail.Snapshot[maxCatchupChunk:]
	}
	if err := w.start(MsgCatchup, appendCatchup(nil, &tail)); err != nil {
		r.mu.Unlock()
		c.Close()
		return fmt.Errorf("rpc: attaching follower %s: %w", addr, err)
	}
	f, err := r.admitLocked(ctx, addr, &w)
	if err != nil {
		r.report(f, err)
		return fmt.Errorf("rpc: follower %s refused catch-up: %w", addr, err)
	}
	return nil
}

// maxCatchupChunk caps one catch-up frame's snapshot or record bytes,
// comfortably under MaxFrame (mirroring the feed path's maxBatchBody).
// Variable only so tests can force the chunked paths on small transfers.
var maxCatchupChunk = 8 << 20

// attachResume offers a restarted follower at exactly the primary's
// position a resume: one final MsgCatchupDelta with no records and the
// fingerprint its own state must match. done means the follower is
// attached; otherwise the caller falls back to the full cut — on a fresh
// connection when sent reports the offer went out, on this same connection
// otherwise. The probe (the follower's Stats) runs outside the stream lock —
// an idle, unattached follower's position cannot move; the position check,
// fingerprint, frame start and follower registration are atomic under the
// lock, exactly like the full path.
func (r *Replicator) attachResume(ctx context.Context, addr string, c *Client) (done, sent bool) {
	st, err := c.Stats(ctx)
	if err != nil || st.Fed == 0 {
		return false, false
	}
	r.mu.Lock()
	if st.Fed != r.fed() {
		r.mu.Unlock()
		return false, false
	}
	d := CatchupDelta{FromPos: st.Fed, Final: true}
	d.Fingerprint, d.FileCount = r.fp()
	w := window{c: c}
	if err := w.start(MsgCatchupDelta, appendCatchupDelta(nil, &d)); err != nil {
		r.mu.Unlock()
		return false, true
	}
	// A refusal is not a lost follower — the caller retries with a full cut
	// — so it is removed without the lost callback.
	_, err = r.admitLocked(ctx, addr, &w)
	return err == nil, true
}

// admitLocked adds the connection whose catch-up frames w has started to
// the live stream and RELEASES r.mu, which the caller holds: registration
// under the lock that started the frames is what puts the first replicated
// frame FIFO behind them. The follower's verdicts are then awaited outside
// the lock — the stream stays correct whether they arrive before or after
// later frames — and a refusal takes the follower out of the stream again.
func (r *Replicator) admitLocked(ctx context.Context, addr string, w *window) (*replFollower, error) {
	f := &replFollower{addr: addr, c: w.c}
	r.followers = append(r.followers, f)
	pos := r.fed()
	r.mu.Unlock()
	if err := w.flush(ctx); err != nil {
		r.remove(f)
		return f, err
	}
	// The verified catch-up is the follower's first acked position; stream
	// frames enqueued behind it raise it from here.
	f.ackTo(pos)
	return f, nil
}

// Ingest replicates one record batch: mine runs the local ingestion under
// the stream lock, then the batch is enqueued to every follower at the
// position the miner stood at before it. It returns after every live
// follower acked (followers that fail are detached and reported, not waited
// for). mine's error aborts the step before anything is shipped.
func (r *Replicator) Ingest(ctx context.Context, recs []trace.Record, mine func() error) error {
	if len(recs) == 0 {
		return nil
	}
	r.mu.Lock()
	pos := r.fed()
	if err := mine(); err != nil {
		r.mu.Unlock()
		return err
	}
	waits := r.broadcastLocked(MsgReplicate, func() []byte { return appendReplicateRecords(nil, pos, recs) })
	r.mu.Unlock()
	r.collect(ctx, waits, pos+uint64(len(recs)))
	return nil
}

// replWait is one follower's share of a broadcast: the frame started on its
// connection, ack pending.
type replWait struct {
	f *replFollower
	p *pending
}

// broadcastLocked starts one frame toward every follower, holding r.mu —
// which is what orders it on every follower connection exactly as the
// primary ordered it locally. The body is encoded once, and only when there
// is a follower to send it to. Followers whose connection refuses the frame
// are detached immediately.
func (r *Replicator) broadcastLocked(typ MsgType, encode func() []byte) []replWait {
	if len(r.followers) == 0 {
		return nil
	}
	body := encode()
	waits := make([]replWait, 0, len(r.followers))
	for i := 0; i < len(r.followers); {
		f := r.followers[i]
		p, err := f.c.start(typ, body)
		if err != nil {
			r.removeLocked(f)
			go r.report(f, err)
			continue
		}
		waits = append(waits, replWait{f, p})
		i++
	}
	return waits
}

// awaitAck waits for one follower's ack of a started frame, at most
// ackTimeout: a follower that is connected but wedged never produces a
// transport error, only this bound.
func (r *Replicator) awaitAck(ctx context.Context, f *replFollower, p *pending) error {
	ctx, cancel := context.WithTimeout(ctx, r.ackTimeout)
	defer cancel()
	_, err := f.c.wait(ctx, p)
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("no ack within %v (follower wedged?): %w", r.ackTimeout, err)
	}
	return err
}

// collect awaits a broadcast's acks, outside the lock so the pipeline stays
// full. An ack raises the follower's acked position to post (0: the frame
// attests no position). A stale-epoch refusal — only a lease grant is ever
// refused so — is reported, not punished: the follower's link is healthy,
// the leadership is what's wrong. Any other failure detaches the follower.
func (r *Replicator) collect(ctx context.Context, waits []replWait, post uint64) (acked int, stale bool) {
	for _, w := range waits {
		switch err := r.awaitAck(ctx, w.f, w.p); {
		case err == nil:
			w.f.ackTo(post)
			acked++
		case errors.Is(err, ErrStaleEpoch):
			stale = true
		default:
			r.detach(w.f, err)
		}
	}
	return acked, stale
}

// removeLocked takes f out of the live stream; r.mu is held.
func (r *Replicator) removeLocked(f *replFollower) {
	if i := slices.Index(r.followers, f); i >= 0 {
		r.followers = slices.Delete(r.followers, i, i+1)
	}
}

func (r *Replicator) remove(f *replFollower) {
	r.mu.Lock()
	r.removeLocked(f)
	r.mu.Unlock()
}

// detach removes a failed follower, closes its connection and reports it.
func (r *Replicator) detach(f *replFollower, err error) {
	r.remove(f)
	r.report(f, err)
}

func (r *Replicator) report(f *replFollower, err error) {
	f.c.Close()
	if r.lost != nil && !errors.Is(err, ErrClientClosed) {
		r.lost(f.addr, err)
	}
}

// RenewLease broadcasts the leader's term to every attached follower as a
// MsgLeaseGrant on the replication stream (FIFO behind any in-flight
// records). It reports how many followers acked the renewal and whether any
// refused it as stale — the leader's signal that a higher epoch exists and
// it must depose itself.
func (r *Replicator) RenewLease(ctx context.Context, info LeaseInfo) (acked int, stale bool) {
	r.mu.Lock()
	waits := r.broadcastLocked(MsgLeaseGrant, func() []byte { return appendLeaseInfo(nil, &info) })
	r.mu.Unlock()
	return r.collect(ctx, waits, 0)
}

// TransferLease hands the lease to the attached follower at addr: the
// transfer grant is started on the follower's replication connection UNDER
// the stream lock — FIFO behind every record already enqueued, so the
// follower owns the complete acked stream the moment it adopts the term —
// and then commit runs, still under the lock, to mark the source stale
// (commit must not fail: after it, writes on the source refuse typed).
// The follower's ack is awaited outside the lock. An ack failure after the
// grant was sent leaves the source deposed — at worst an availability gap
// until the target's lease expires, never a double-leader window.
func (r *Replicator) TransferLease(ctx context.Context, addr string, info LeaseInfo, commit func()) error {
	info.Transfer = true
	r.mu.Lock()
	i := slices.IndexFunc(r.followers, func(f *replFollower) bool { return f.addr == addr })
	if i < 0 {
		r.mu.Unlock()
		return fmt.Errorf("rpc: lease transfer to %s: not an attached follower", addr)
	}
	target := r.followers[i]
	p, err := target.c.start(MsgLeaseGrant, appendLeaseInfo(nil, &info))
	if err != nil {
		r.mu.Unlock()
		r.detach(target, err)
		return fmt.Errorf("rpc: lease transfer to %s: %w", addr, err)
	}
	commit()
	r.mu.Unlock()
	if err := r.awaitAck(ctx, target, p); err != nil {
		return fmt.Errorf("rpc: lease transfer to %s: grant sent but not acked (source stays deposed): %w", addr, err)
	}
	return nil
}

// Close detaches every follower, draining their connections gracefully (a
// clean primary shutdown leaves followers fully caught up, ready for
// promotion).
func (r *Replicator) Close() {
	r.mu.Lock()
	followers := r.followers
	r.followers = nil
	r.mu.Unlock()
	for _, f := range followers {
		f.c.Close()
	}
}
