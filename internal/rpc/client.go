package rpc

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// ErrClientClosed reports a call issued after Close, or one interrupted by
// it.
var ErrClientClosed = errors.New("rpc: client closed")

// ErrDisconnected reports that the client's connection failed underneath it:
// the transport error is sticky, so every outstanding and later call returns
// an error wrapping ErrDisconnected. A Client never reconnects itself — one
// connection is one FIFO stream, and splicing a new socket under pipelined
// requests would reorder them — so callers that can re-establish state
// (farmer.Dial's failover, which redials and re-promotes) match this error
// with errors.Is and swap in a fresh Client. Before it existed, the sticky
// error was untyped and callers had no sanctioned way to tell "this
// connection is dead, redial" from an application error — one transient
// fault wedged the client forever.
var ErrDisconnected = errors.New("rpc: disconnected")

// pending is one in-flight request; the reader delivers the matching
// response frame (or the client fails it with an error).
type pending struct {
	id  uint64
	ch  chan Frame // buffered 1
	buf *frameBuf  // response frame's read buffer (Body aliases it); owned by the waiter
	at  time.Time  // when a window that measures ack round trips started it
}

// pendingPool recycles pending slots — and with them their one-buffered
// channels — so a windowed ack stream (AckWindow, FeedBatch pipelining)
// stops paying two allocations per request. Slots return to the pool only
// from the receive path in wait: a slot whose channel was closed
// by fail, or whose response was abandoned on ctx expiry (the reader may
// still send into it), is simply dropped for the GC. Together with the
// pooled response-read buffer in readLoop, measured on
// BenchmarkAckWindowFeed/w32: 1029 -> 823 B/op (-20%), 23 -> 19 allocs/op.
var pendingPool = sync.Pool{New: func() any { return &pending{ch: make(chan Frame, 1)} }}

// recycle returns p and any response buffer it carries to their pools. Only
// legal after receiving a frame from p.ch: the channel is then empty, still
// open, and no other goroutine holds p.
func (p *pending) recycle() {
	if p.buf != nil {
		putFrameBuf(p.buf)
		p.buf = nil
	}
	pendingPool.Put(p)
}

// Client speaks the wire protocol over one connection, with request
// pipelining: any number of calls may be outstanding, each matched to its
// response by id. Requests are written through a dedicated goroutine that
// coalesces a burst into one flush (per-connection write batching). Safe
// for concurrent use.
//
// A Client is bound to one tenant: every frame it sends carries the tenant
// id from its DialOptions (empty = the default tenant), so the server
// routes the whole connection's traffic to that tenant's miner.
type Client struct {
	conn   net.Conn
	tenant string
	token  string

	sawFrame atomic.Bool // any response frame ever decoded (version probe)

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]*pending
	err     error // first transport error, sticky
	closed  bool
	failed  bool // fail ran (done is closed)

	out      chan *frameBuf
	quit     chan struct{} // closed by Close: writer flushes and exits
	done     chan struct{} // closed when the reader exits
	writerWG sync.WaitGroup
}

// DialOptions parameterises DialWith. The zero value reproduces Dial: TCP,
// default tenant, no token, no TLS.
type DialOptions struct {
	// Tenant binds every frame this client sends to one tenant id (see
	// ValidTenant); empty addresses the server's default tenant.
	Tenant string
	// Token is the bearer token presented in the connection's hello. A
	// server configured with auth refuses everything else until the hello
	// carried a token allowed the connection's tenants.
	Token string
	// TLS, when non-nil, wraps the connection in TLS with this config —
	// the client half of farmerd -tls-cert/-tls-key.
	TLS *tls.Config
}

// Dial connects to a FARMER rpc server at a TCP addr, honoring ctx for the
// connection attempt — DialWith with default options.
func Dial(ctx context.Context, addr string) (*Client, error) {
	return DialWith(ctx, addr, DialOptions{})
}

// DialWith connects to a FARMER rpc server and performs the protocol hello:
// the token is presented (auth happens before any other frame dispatch) and
// the server's protocol version is confirmed. A pre-tenant (v1) server
// drops the hello without answering; DialWith reports that as ErrBadVersion
// with an upgrade hint rather than a generic connection error.
func DialWith(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	if err := ValidTenant(opts.Tenant); err != nil {
		return nil, err
	}
	var conn net.Conn
	var err error
	if opts.TLS != nil {
		d := tls.Dialer{Config: opts.TLS}
		conn, err = d.DialContext(ctx, "tcp", addr)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := newClient(conn, opts)
	// Tenant-aware (or authenticating) clients open with the hello — it
	// presents the token before anything else and doubles as the version
	// probe. A default-tenant, tokenless Dial skips it, staying trivially
	// compatible with servers (and tests) that never answer unprompted.
	if opts.Tenant != "" || opts.Token != "" {
		if err := c.hello(ctx); err != nil {
			c.Close()
			return nil, fmt.Errorf("rpc: hello %s: %w", addr, err)
		}
	}
	return c, nil
}

// NewClient wraps an established connection (default tenant, no hello —
// valid against servers that run without auth).
func NewClient(conn net.Conn) *Client { return newClient(conn, DialOptions{}) }

func newClient(conn net.Conn, opts DialOptions) *Client {
	c := &Client{
		conn:    conn,
		tenant:  opts.Tenant,
		token:   opts.Token,
		waiting: make(map[uint64]*pending),
		out:     make(chan *frameBuf, 256),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.writerWG.Add(1)
	go c.writeLoop()
	go c.readLoop()
	return c
}

// hello runs the connection-opening handshake. The EOF-without-any-frame
// signature — the server read our v2 frame and hung up without answering —
// is how a v1 farmerd treats a version it does not speak, so that case is
// reported as ErrBadVersion with an upgrade hint instead of a bare
// disconnect.
func (c *Client) hello(ctx context.Context) error {
	_, err := c.call(ctx, MsgHello, appendHello(nil, c.token))
	if err != nil && errors.Is(err, ErrDisconnected) && !c.sawFrame.Load() {
		return fmt.Errorf("%w: server closed the connection on a v%d hello without answering — it likely speaks an older protocol version; upgrade the server (%v)",
			ErrBadVersion, ProtocolVersion, err)
	}
	return err
}

// writeLoop drains queued frames, coalescing everything available into one
// buffered write and a single flush — the per-connection write batching
// that lets a pipelined burst of Feeds cost one syscall.
func (c *Client) writeLoop() {
	defer c.writerWG.Done()
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	for {
		var buf *frameBuf
		select {
		case buf = <-c.out:
		case <-c.quit:
			bw.Flush()
			return
		}
		// bufio.Writer.Write has copied (or written out) the bytes by the
		// time it returns, so the buffer recycles immediately.
		bw.Write(buf.b)
		putFrameBuf(buf)
	batch:
		for {
			select {
			case more := <-c.out:
				bw.Write(more.b)
				putFrameBuf(more)
			default:
				break batch
			}
		}
		if err := bw.Flush(); err != nil {
			// Fail fast: the reader would eventually observe the broken
			// connection too, but a peer that only broke our write half
			// (or a long read timeout) would leave pending calls hanging
			// meanwhile. fail is idempotent, so racing the reader is fine;
			// closing the conn unparks the reader so it exits promptly.
			c.fail(err)
			c.conn.Close()
			return
		}
	}
}

// readLoop matches response frames to pending calls. On transport error it
// fails every outstanding and future call with that error.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		// Each response reads into a pooled buffer the frame's Body aliases.
		// Ownership travels with the pending to the waiter (the channel send
		// publishes p.buf), which recycles it once the body is consumed; a
		// response nobody is waiting for recycles here.
		fb := getFrameBuf()
		f, b, err := readFrameBuf(br, fb.b)
		fb.b = b
		if err != nil {
			putFrameBuf(fb)
			c.fail(err)
			return
		}
		c.sawFrame.Store(true)
		c.mu.Lock()
		p := c.waiting[f.ID]
		delete(c.waiting, f.ID)
		c.mu.Unlock()
		if p == nil {
			putFrameBuf(fb)
			continue
		}
		p.buf = fb
		p.ch <- f
	}
}

// fail marks the client broken and releases every waiter. Idempotent: the
// writer and the reader may both observe the same broken connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.failed {
		c.mu.Unlock()
		return
	}
	c.failed = true
	if c.err == nil {
		if c.closed {
			c.err = ErrClientClosed
		} else {
			c.err = fmt.Errorf("%w: %v", ErrDisconnected, err)
		}
	}
	waiting := c.waiting
	c.waiting = make(map[uint64]*pending)
	c.mu.Unlock()
	close(c.done)
	for _, p := range waiting {
		close(p.ch)
	}
}

// start enqueues one request and returns its pending slot. The body is
// copied into the frame buffer, so the caller may reuse it.
func (c *Client) start(typ MsgType, body []byte) (*pending, error) {
	if len(body) > MaxFrame-frameHeaderMin-len(c.tenant) {
		// Refuse locally: the server's ReadFrame would reject the frame and
		// drop the connection, failing every pipelined call with it.
		return nil, fmt.Errorf("%w: %d-byte body", ErrFrameTooLarge, len(body))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	p := pendingPool.Get().(*pending)
	p.id = id
	c.waiting[id] = p
	c.mu.Unlock()

	fb := getFrameBuf()
	fb.b = AppendFrameTenant(fb.b, typ, id, c.tenant, body)
	select {
	case c.out <- fb:
		return p, nil
	case <-c.done:
		putFrameBuf(fb)
		c.forget(id)
		return nil, c.lastErr()
	}
}

// wait blocks for p's response, honoring ctx. A ctx expiry abandons the
// response — the pending slot is forgotten immediately (the reader discards
// the reply on arrival), so an abandoner's Close does not drain-wait for a
// response nobody wants; the connection stays healthy.
func (c *Client) wait(ctx context.Context, p *pending) ([]byte, error) {
	select {
	case f, ok := <-p.ch:
		if !ok {
			// fail closed the channel: a closed channel cannot be reused, so
			// the slot (which carries no buffer) is left to the GC.
			return nil, c.lastErr()
		}
		if f.Type == MsgErr {
			err := decodeWireError(f.Body) // copies the message out of the buffer
			p.recycle()
			return nil, err
		}
		if f.Type != MsgOK {
			p.recycle()
			return nil, fmt.Errorf("rpc: unexpected response type %d", f.Type)
		}
		body := f.Body
		if len(body) == 0 {
			// The ack hot path: nothing to hand the caller, so the slot and
			// its response buffer both recycle — a steady windowed feed
			// stream stops allocating per ack.
			p.recycle()
			return nil, nil
		}
		// A non-empty body aliases p.buf and is handed to the caller, which
		// may retain it (ReadFrame's historical contract): the buffer leaves
		// the pool's custody, but the slot itself still recycles.
		p.buf = nil
		p.recycle()
		return body, nil
	case <-ctx.Done():
		// Abandoned: the reader may still deliver into p.ch later, so
		// neither the slot nor the buffer it would carry can be recycled.
		c.forget(p.id)
		return nil, ctx.Err()
	}
}

func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.waiting, id)
	c.mu.Unlock()
}

func (c *Client) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClientClosed
}

// call is the synchronous request/response path.
func (c *Client) call(ctx context.Context, typ MsgType, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := c.start(typ, body)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, p)
}

// roundTrip is a call whose answer carries a body: send, wait, decode.
func roundTrip[T any](ctx context.Context, c *Client, typ MsgType, req []byte, decode func([]byte) (T, error)) (T, error) {
	body, err := c.call(ctx, typ, req)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(body)
}

// Ping round-trips an empty frame and reports the wall-clock latency.
func (c *Client) Ping(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	_, err := c.call(ctx, MsgPing, nil)
	return time.Since(t0), err
}

// Feed ships one record to the remote miner and waits for its ack.
func (c *Client) Feed(ctx context.Context, r *trace.Record) error {
	_, err := c.call(ctx, MsgFeed, trace.AppendRecord(nil, r))
	return err
}

// maxBatchBody caps one FeedBatch frame's encoded body, comfortably under
// MaxFrame: larger batches are split into pipelined frames rather than
// tripping the server's frame bound and killing the connection. Variable
// only so tests can force the split path on small batches.
var maxBatchBody = 8 << 20

// FeedBatch ships the batch as one or more pipelined frames (split at
// maxBatchBody); the server mines each with all shards in parallel, in
// order, and FeedBatch returns once every frame is acked.
func (c *Client) FeedBatch(ctx context.Context, recs []trace.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	w := window{c: c}
	// start copies the body into the frame buffer, so one pooled scratch
	// serves every frame — the hot feed path stops allocating per frame.
	scratch := getFrameBuf()
	defer putFrameBuf(scratch)
	_ = chunkRecords(recs, maxBatchBody, func(run []trace.Record, _ bool) error {
		scratch.b = appendRecords(scratch.b[:0], run)
		return w.start(ctx, MsgFeedBatch, scratch.b)
	})
	return w.flush(ctx) // every ack, then the first failure (a refused start included)
}

// Predict asks the remote miner for up to k successors of f.
func (c *Client) Predict(ctx context.Context, f trace.FileID, k int) ([]trace.FileID, error) {
	return roundTrip(ctx, c, MsgPredict, appendPredictReq(nil, f, k), decodePredictResp)
}

// CorrelatorList fetches f's full Correlator List with bit-exact degrees.
func (c *Client) CorrelatorList(ctx context.Context, f trace.FileID) ([]core.Correlator, error) {
	return roundTrip(ctx, c, MsgList, binary.LittleEndian.AppendUint32(nil, uint32(f)), decodeListResp)
}

// Stats fetches the remote miner's footprint snapshot.
func (c *Client) Stats(ctx context.Context) (core.Stats, error) {
	return roundTrip(ctx, c, MsgStats, nil, consumeStats)
}

// Save checkpoints the remote miner into its server-side store.
func (c *Client) Save(ctx context.Context) error {
	_, err := c.call(ctx, MsgSave, nil)
	return err
}

// Load restores the remote miner from its server-side store.
func (c *Client) Load(ctx context.Context) error {
	_, err := c.call(ctx, MsgLoad, nil)
	return err
}

// Promote asks the server to start accepting writes. A primary (or any
// standalone server) answers OK as a no-op; an un-promoted follower accepts
// only if its primary's replication link is down, and otherwise answers
// CodeNotPrimary (match with errors.Is(err, ErrNotPrimary)) — the
// split-brain guard a failing-over client relies on.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.call(ctx, MsgPromote, nil)
	return err
}

// Catchup ships a checkpoint cut to a follower and waits for it to verify
// and install it — the bootstrap half of the replication stream.
func (c *Client) Catchup(ctx context.Context, cut *CatchupCut) error {
	_, err := c.call(ctx, MsgCatchup, appendCatchup(nil, cut))
	return err
}

// Groups runs a replica-group operation on the server: with req.Read it
// reports the manager's current fingerprint; otherwise the server rebuilds
// groups from its mined state and cuts a group-atomic backup of every group
// (on a replicating primary, the cut is forwarded to followers at the same
// stream position).
func (c *Client) Groups(ctx context.Context, req GroupsReq) (GroupsInfo, error) {
	return roundTrip(ctx, c, MsgGroups, appendGroupsReq(nil, &req), decodeGroupsInfo)
}

// LeaseStatus asks the server for its current lease term (epoch 0: a
// follower that has observed none yet; a daemon without -lease-ttl reports
// its untimed term, TTLMS 0). A pre-lease server answers CodeUnsupported.
func (c *Client) LeaseStatus(ctx context.Context) (LeaseInfo, error) {
	return roundTrip(ctx, c, MsgLeaseRequest, appendLeaseReq(nil, 0, ""), decodeLeaseInfo)
}

// LeaseVote asks the server to vote candidate into epoch. Granted = nil;
// refused = ErrStaleEpoch (the term is taken, or the sitting leader's lease
// is still live).
func (c *Client) LeaseVote(ctx context.Context, epoch uint64, candidate string) error {
	_, err := c.call(ctx, MsgLeaseRequest, appendLeaseReq(nil, epoch, candidate))
	return err
}

// LeaseGrant announces a lease term to the server: a renewal from the
// leader, or — with info.Transfer — a handoff that makes the receiving
// follower the leader of the carried epoch.
func (c *Client) LeaseGrant(ctx context.Context, info LeaseInfo) error {
	_, err := c.call(ctx, MsgLeaseGrant, appendLeaseInfo(nil, &info))
	return err
}

// Handoff asks the server (a lease-holding leader) to hand its write role
// to the farmerd at target, catching it up first when needed — the wire
// half of `farmerctl rebalance`.
func (c *Client) Handoff(ctx context.Context, target string) error {
	_, err := c.call(ctx, MsgHandoff, appendHandoffReq(nil, target))
	return err
}

// WireStats reads the server's per-request-type latency accounting.
// Control-plane, like Obs.
func (c *Client) WireStats(ctx context.Context) ([]WireStat, error) {
	return roundTrip(ctx, c, MsgWireStats, nil, decodeWireStats)
}

// Tenants lists the tenants live on the server with a stats snapshot each —
// the wire half of `farmerctl tenants`.
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	return roundTrip(ctx, c, MsgTenants, nil, decodeTenantInfos)
}

// Obs asks the server for its live observability rows — one per tenant the
// connection may see, each with up to topK correlation groups (0 = rows
// only). Control-plane, like Tenants.
func (c *Client) Obs(ctx context.Context, topK int) ([]TenantObs, error) {
	return roundTrip(ctx, c, MsgObs, appendObsReq(nil, topK), decodeTenantObs)
}

// Close drains gracefully: no new calls are accepted, outstanding responses
// are awaited briefly, then the connection closes. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	// Give in-flight calls a bounded window to complete (graceful drain).
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
drain:
	for {
		c.mu.Lock()
		n := len(c.waiting)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			break drain
		case <-c.done:
			break drain
		}
	}
	close(c.quit)
	// Bound the writer's final flush: a peer that stopped reading leaves
	// the write blocked on TCP backpressure, and only a deadline (or
	// closing the conn) unblocks it — without this, Wait could hang forever
	// and conn.Close would never run.
	c.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	c.writerWG.Wait()
	err := c.conn.Close()
	<-c.done // reader exits on the closed connection
	return err
}
