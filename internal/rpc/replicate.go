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
// outbound replication stream to every attached follower and the single
// stream-position counter both ends agree on.
//
// The contract with the serving layer is that EVERY mutation of the mined
// stream goes through Ingest (records) or Groups (group-backup cuts): the
// mutation runs under the replicator's lock, so the local mine, the position
// assignment and the enqueue onto each follower connection are one atomic
// step, and each follower connection — a FIFO channel, like every rpc
// connection — carries the exact stream the primary mined, in order.
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
	pos        uint64
	followers  []*replFollower
	ackTimeout time.Duration
	lost       func(addr string, err error)
	dialOpts   DialOptions

	// Delta catch-up (EnableDeltaCatchup): the tail ring retains the last
	// tailCap ingested records — positions [tailBase, pos) — so a follower
	// restarting from its own on-disk checkpoint can be caught up by
	// replaying just the records it missed instead of shipping a full
	// snapshot. deltaFp non-nil is the armed flag.
	tailCap  int
	tail     []trace.Record
	tailBase uint64
	deltaFp  func() (fingerprint uint64, fileCount int)
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
	out := make([]FollowerLag, len(r.followers))
	for i, f := range r.followers {
		acked := f.acked.Load()
		var lag uint64
		if r.pos > acked {
			lag = r.pos - acked
		}
		out[i] = FollowerLag{Addr: f.addr, Acked: acked, Lag: lag}
	}
	return out
}

// NewReplicator creates a replicator whose stream starts at pos (the
// primary miner's current record count). ackTimeout bounds the wait for one
// follower's ack (<= 0 means unbounded): a follower that is connected but
// wedged — its process stopped, its disk stuck — never produces a transport
// error, and without the bound it would block every Ingest (and therefore
// every client write on the primary) forever; when the bound expires the
// follower is detached like a dead one. lost, if non-nil, is called once
// for each follower dropped after a replication failure.
func NewReplicator(pos uint64, ackTimeout time.Duration, lost func(addr string, err error)) *Replicator {
	return &Replicator{pos: pos, ackTimeout: ackTimeout, lost: lost}
}

// SetDialOptions sets the options every later Attach dials followers with:
// a tenant-bound replicator stamps its tenant id on every catch-up and
// replication frame (the follower reassembles per-tenant streams from
// per-tenant connections), and the token/TLS half authenticates against a
// follower running with -auth or -tls-cert. Call before the first Attach.
func (r *Replicator) SetDialOptions(opts DialOptions) {
	r.mu.Lock()
	r.dialOpts = opts
	r.mu.Unlock()
}

// EnableDeltaCatchup arms the delta catch-up path: the replicator retains
// the most recent tailCap ingested records, and Attach first offers a
// restarted follower — one whose Stats place its position inside that tail —
// a MsgCatchupDelta replay from its own position instead of a full snapshot.
// fp is consulted under the stream lock (the stream is quiescent) and must
// return the primary's current state fingerprint and tracked-file bound; the
// follower verifies the fingerprint after replaying the delta, so a delta
// attach ends with the same state guarantee as a full one. tailCap <= 0 is a
// no-op. Call before the first Attach.
func (r *Replicator) EnableDeltaCatchup(tailCap int, fp func() (fingerprint uint64, fileCount int)) {
	if tailCap <= 0 || fp == nil {
		return
	}
	r.mu.Lock()
	r.tailCap = tailCap
	r.deltaFp = fp
	r.tail = r.tail[:0]
	r.tailBase = r.pos
	r.mu.Unlock()
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

// Attach dials a follower, cuts a checkpoint of the primary's state and
// ships it as a MsgCatchup frame, then adds the follower to the live
// stream. cut runs under the replicator's lock — the stream is quiescent
// while the checkpoint is taken, so the cut and the attach are atomic: no
// record can slip between the snapshot and the first replicated frame. The
// returned error covers dialing, cutting and the follower's verification of
// the cut.
func (r *Replicator) Attach(ctx context.Context, addr string, cut func() (CatchupCut, error)) error {
	r.mu.Lock()
	opts := r.dialOpts
	deltaOn := r.deltaFp != nil
	r.mu.Unlock()
	c, err := DialWith(ctx, addr, opts)
	if err != nil {
		return fmt.Errorf("rpc: attaching follower %s: %w", addr, err)
	}
	if deltaOn {
		done, sent := r.attachDelta(ctx, addr, c)
		if done {
			return nil
		}
		if sent {
			// The follower refused the replay mid-delta (an old server
			// answers CodeUnsupported here): fall back to the full cut on a
			// fresh connection — the refused transfer may have left frames
			// in flight on this one.
			c.Close()
			if c, err = DialWith(ctx, addr, opts); err != nil {
				return fmt.Errorf("rpc: attaching follower %s: %w", addr, err)
			}
		}
		// Offer inapplicable (no resumable position, or outside the tail):
		// nothing was sent, the same connection carries the full cut.
	}
	r.mu.Lock()
	cc, err := cut()
	if err == nil && cc.Pos != r.pos {
		// The miner was fed behind the replicator's back; refusing beats
		// shipping a stream the follower will refuse at the first frame.
		err = fmt.Errorf("checkpoint at position %d, stream at %d (miner fed outside the replicator?)", cc.Pos, r.pos)
	}
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
		_ = w.start(ctx, MsgCatchupChunk, tail.Snapshot[:maxCatchupChunk])
		tail.Snapshot = tail.Snapshot[maxCatchupChunk:]
	}
	if err := w.start(ctx, MsgCatchup, appendCatchup(nil, &tail)); err != nil {
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

// attachDelta offers a restarted follower a catch-up by record replay from
// its own position. done means the follower is attached; otherwise the
// caller falls back to the full cut — on a fresh connection when sent
// reports delta frames already went out, on this same connection otherwise.
// The probe (the follower's Stats) runs outside the stream lock — an idle,
// unattached follower's position cannot move; the cut itself — position
// check, fingerprint, frame starts, follower registration — is atomic under
// the lock, exactly like the full path.
func (r *Replicator) attachDelta(ctx context.Context, addr string, c *Client) (done, sent bool) {
	st, err := c.Stats(ctx)
	if err != nil || st.Fed == 0 {
		return false, false
	}
	r.mu.Lock()
	if st.Fed < r.tailBase || st.Fed > r.pos {
		r.mu.Unlock()
		return false, false
	}
	// A delta bigger than one frame ships as non-final MsgCatchupDelta
	// frames (each at its own cumulative position, replayed in FIFO order)
	// plus a final frame carrying the fingerprint the follower must match
	// after the whole replay. Zero missed records still ship one final
	// frame: the fingerprint check is the attach guarantee.
	w := window{c: c}
	pos := st.Fed
	startErr := chunkRecords(r.tail[pos-r.tailBase:], maxCatchupChunk, func(run []trace.Record, last bool) error {
		d := CatchupDelta{FromPos: pos, Records: run, Final: last}
		if last {
			d.Fingerprint, d.FileCount = r.deltaFp()
		}
		pos += uint64(len(run))
		return w.start(ctx, MsgCatchupDelta, appendCatchupDelta(nil, &d))
	})
	if startErr != nil {
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
	pos := r.pos
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
// claimed position. It returns after every live follower acked (followers
// that fail are detached and reported, not waited for). mine's error aborts
// the step before anything is shipped.
func (r *Replicator) Ingest(ctx context.Context, recs []trace.Record, mine func() error) error {
	if len(recs) == 0 {
		return nil
	}
	r.mu.Lock()
	if err := mine(); err != nil {
		r.mu.Unlock()
		return err
	}
	post := r.pos + uint64(len(recs))
	waits := r.broadcastLocked(MsgReplicate, func() []byte { return appendReplicateRecords(nil, r.pos, recs) })
	if r.deltaFp != nil {
		// Extend the catch-up tail. Trimming by reslice leaves the backing
		// array to append's usual reallocation; memory stays within a small
		// constant of tailCap records.
		r.tail = append(r.tail, recs...)
		if drop := len(r.tail) - r.tailCap; drop > 0 {
			r.tail = r.tail[drop:]
			r.tailBase += uint64(drop)
		}
	}
	r.pos = post
	r.mu.Unlock()
	r.collect(ctx, waits, post)
	return nil
}

// Groups replicates a group-backup command: run executes the cut locally
// under the stream lock (at a definite position), and every follower
// receives the same command at the same position. run's error aborts the
// step before anything is shipped.
func (r *Replicator) Groups(ctx context.Context, req GroupsReq, run func() error) error {
	r.mu.Lock()
	if err := run(); err != nil {
		r.mu.Unlock()
		return err
	}
	post := r.pos
	waits := r.broadcastLocked(MsgReplicate, func() []byte { return appendReplicateGroups(nil, r.pos, &req) })
	if r.deltaFp != nil {
		// A group cut is a command, not records: a follower resuming from
		// before it would replay the records but silently miss the cut, so
		// the resumable tail restarts at the current position.
		r.tail = r.tail[:0]
		r.tailBase = r.pos
	}
	r.mu.Unlock()
	r.collect(ctx, waits, post)
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
	if r.ackTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.ackTimeout)
		defer cancel()
	}
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
