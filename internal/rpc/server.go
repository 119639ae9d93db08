package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/core"
	"farmer/internal/obs"
	"farmer/internal/trace"
)

// Backend is the mining surface a Server puts on the wire — implemented by
// the farmer package's local miner, and by anything else that wants to
// speak the protocol. Requests on one connection are handled sequentially
// in arrival order; the backend only needs the same concurrency safety as
// core.ShardedModel (many connections may call it at once). Errors wrapping
// ErrNotPrimary travel as CodeNotPrimary (an un-promoted follower refusing
// a write); every other backend error travels as CodeInternal.
type Backend interface {
	Feed(r *trace.Record) error
	FeedBatch(recs []trace.Record) error
	Predict(f trace.FileID, k int) []trace.FileID
	CorrelatorList(f trace.FileID) []core.Correlator
	Stats() core.Stats
	Save() error
	Load() error
}

// ReplicaBackend is the optional replication surface: a backend that also
// implements it accepts MsgPromote/MsgCatchup/MsgReplicate/MsgGroups frames
// (a server whose backend does not answers CodeUnsupported). The conn
// argument identifies the connection a frame arrived on — the follower
// pins its replication source to the first connection that catches it up,
// and ConnClosed tells it that source is gone (which is what makes the
// follower promotable).
type ReplicaBackend interface {
	Backend
	Promote() error
	Catchup(conn uint64, cut CatchupCut) error
	// CatchupDelta applies one chunk of a delta catch-up: the follower
	// replays the missed records through its own miner and, on the final
	// chunk, verifies the primary's fingerprint against its post-replay
	// state. Any error tells the primary to fall back to a full cut.
	CatchupDelta(conn uint64, d CatchupDelta) error
	Replicate(conn uint64, pos uint64, recs []trace.Record) error
	ReplicateGroups(conn uint64, pos uint64, req GroupsReq) error
	Groups(req GroupsReq) (GroupsInfo, error)
	ConnClosed(conn uint64)
}

// LeaseBackend is the optional lease surface: a backend that also
// implements it answers MsgLeaseRequest/MsgLeaseGrant frames (see
// internal/lease). LeaseStatus reports the current term; LeaseVote decides
// a candidate's election request; LeaseGrant folds a leader's announced
// term in — the conn argument identifies the connection the grant arrived
// on, so a transfer grant can be required to travel the pinned replication
// link. Refusals wrap ErrStaleEpoch and travel as CodeStaleEpoch.
type LeaseBackend interface {
	LeaseStatus() LeaseInfo
	LeaseVote(epoch uint64, candidate string) error
	LeaseGrant(conn uint64, info LeaseInfo) error
}

// HandoffBackend is the optional live-handoff surface behind MsgHandoff
// (`farmerctl rebalance`): a lease-holding leader that implements it ships
// its state to the target farmerd and transfers the lease.
type HandoffBackend interface {
	Handoff(target string) error
}

// ObsResolver is the optional resolver surface behind MsgObs: one live
// observability row per tenant, each carrying up to topK correlation
// groups. The rpc layer stamps the FeedRecords/FeedFrames fields from its
// own per-tenant counters after the resolver builds the rows.
type ObsResolver interface {
	TenantObs(topK int) []TenantObs
}

// ObsBackend is the per-backend counterpart: a Backend that can report its
// own observability row (SingleTenant uses it to satisfy ObsResolver).
type ObsBackend interface {
	TenantObs(topK int) TenantObs
}

// Resolver maps a frame's tenant id to the backend serving that tenant —
// the seam between the tenant-agnostic wire layer and farmer's registry.
// BackendFor may create the tenant lazily; it returns an error wrapping
// ErrTenantBudget when admission control refuses (travels as
// CodeTenantBudget, so the one over-budget tenant fails without disturbing
// its neighbors). Tenants snapshots the live tenants for MsgTenants.
// Implementations must be safe for concurrent use.
type Resolver interface {
	BackendFor(tenant string) (Backend, error)
	Tenants() []TenantInfo
}

// singleResolver adapts the historical one-backend server: the default
// tenant resolves to it, any named tenant is refused.
type singleResolver struct{ b Backend }

func (s singleResolver) BackendFor(tenant string) (Backend, error) {
	if tenant != "" {
		return nil, fmt.Errorf("rpc: unknown tenant %q (single-tenant server)", tenant)
	}
	return s.b, nil
}

func (s singleResolver) Tenants() []TenantInfo {
	return []TenantInfo{{Name: "", Stats: s.b.Stats()}}
}

func (s singleResolver) TenantObs(topK int) []TenantObs {
	if ob, ok := s.b.(ObsBackend); ok {
		row := ob.TenantObs(topK)
		row.Name = ""
		return []TenantObs{row}
	}
	st := s.b.Stats()
	return []TenantObs{{
		Fed:         st.Fed,
		MemoryBytes: uint64(st.MemoryBytes),
		TapDepth:    uint64(st.TapDepth),
		TapDropped:  st.TapDropped,
		CkptAgeMS:   NeverCheckpointed,
	}}
}

// SingleTenant wraps one backend as a Resolver serving only the default
// tenant — what NewServer uses, and the composition for deployments that
// never name tenants.
func SingleTenant(b Backend) Resolver { return singleResolver{b} }

// ServerOptions parameterises NewResolverServer beyond the resolver.
type ServerOptions struct {
	// AuthTokens maps static bearer tokens to the tenant ids each may
	// address; the value "*" allows every tenant. A nil map disables auth
	// (every connection may address every tenant); a non-nil map makes the
	// hello mandatory — any other frame before a successful hello is
	// refused with CodeUnauthorized, before tenant dispatch.
	AuthTokens map[string][]string

	// Obs, when set, registers the server's wire-level metrics into the
	// registry: frames/bytes in and out, and per-tenant feed counts. The
	// server counts feeds regardless (MsgObs reports them either way);
	// the registry only adds the /metrics view.
	Obs *obs.Registry
}

// feedCounters is one tenant's wire-level feed accounting: how many
// Feed/FeedBatch frames this server handled for it and how many records
// they carried. Always maintained (MsgObs rows need the numbers whether or
// not a metrics registry is attached); the counters are padded atomics, so
// the hot feed path pays two uncontended adds.
type feedCounters struct {
	frames  obs.Counter
	records obs.Counter
}

// latCounter is one request type's latency accounting: frames handled and
// their summed handling time. Padded atomics — always on, two uncontended
// adds plus two clock reads per request (cheap next to a frame decode).
type latCounter struct {
	count obs.Counter
	sumNS obs.Counter
}

// latSlots covers every request type (responses 0x40+ never dispatch).
const latSlots = 64

// Server serves the FARMER wire protocol over a listener. One goroutine per
// connection reads and handles requests in order; responses go out through
// a per-connection batching writer, so a pipelining client pays one flush
// per burst rather than one per reply.
type Server struct {
	resolver Resolver
	auth     map[string]map[string]bool // token -> allowed tenants; nil disables auth
	authAll  map[string]bool            // tokens allowed every tenant ("*")

	connSeq atomic.Uint64

	// Wire-level observability. The three totals are nil-safe no-ops when no
	// registry is attached; feeds (tenant -> *feedCounters) is always live.
	obsFramesIn *obs.Counter
	obsBytesIn  *obs.Counter
	obsBytesOut *obs.Counter
	obsConns    *obs.Counter
	feeds       sync.Map

	// Per-request-type wire latency: always maintained (MsgWireStats reads
	// it whether or not a registry is attached); lat[t] indexes by request
	// MsgType. latHist mirrors the sums into labeled registry histograms
	// (farmer_rpc_latency_ns{msg=...}) when a registry is attached — ns, not
	// seconds, because obs histograms bucket integers by power of two.
	lat     [latSlots]latCounter
	latHist [latSlots]*obs.Histogram

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	done     chan struct{} // closed when Serve returns

	handling sync.WaitGroup // in-flight connection loops
}

// NewServer creates a single-tenant server for backend (no auth) — the
// pre-tenant constructor, kept for compositions that put one miner on the
// wire directly.
func NewServer(b Backend) *Server {
	return NewResolverServer(SingleTenant(b), ServerOptions{})
}

// NewResolverServer creates a server that routes each frame to the backend
// its tenant id resolves to.
func NewResolverServer(r Resolver, opts ServerOptions) *Server {
	s := &Server{resolver: r, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	if opts.AuthTokens != nil {
		s.auth = make(map[string]map[string]bool, len(opts.AuthTokens))
		s.authAll = make(map[string]bool)
		for tok, tenants := range opts.AuthTokens {
			set := make(map[string]bool, len(tenants))
			for _, t := range tenants {
				if t == "*" {
					s.authAll[tok] = true
					continue
				}
				set[t] = true
			}
			s.auth[tok] = set
		}
	}
	if reg := opts.Obs; reg != nil {
		s.obsFramesIn = reg.Counter("farmer_rpc_frames_total")
		s.obsBytesIn = reg.Counter("farmer_rpc_bytes_read_total")
		s.obsBytesOut = reg.Counter("farmer_rpc_bytes_written_total")
		s.obsConns = reg.Counter("farmer_rpc_connections_total")
		perTenant := func(name string, pick func(*feedCounters) *obs.Counter) {
			reg.CounterEach(name, func(emit obs.EmitFunc) {
				s.feeds.Range(func(k, v any) bool {
					emit([]obs.Label{obs.L("tenant", tenantLabel(k.(string)))}, float64(pick(v.(*feedCounters)).Load()))
					return true
				})
			})
		}
		perTenant("farmer_rpc_tenant_feed_records_total", func(fc *feedCounters) *obs.Counter { return &fc.records })
		perTenant("farmer_rpc_tenant_feed_frames_total", func(fc *feedCounters) *obs.Counter { return &fc.frames })
		for t := MsgType(1); t < MsgOK; t++ {
			s.latHist[t] = reg.Histogram("farmer_rpc_latency_ns", obs.L("msg", t.String()))
		}
	}
	return s
}

// WireStats snapshots the per-request-type latency accounting: one entry
// per type that handled at least one frame, in type order.
func (s *Server) WireStats() []WireStat {
	var out []WireStat
	for t := 0; t < latSlots; t++ {
		if n := s.lat[t].count.Load(); n > 0 {
			out = append(out, WireStat{Type: MsgType(t), Count: n, SumNS: s.lat[t].sumNS.Load()})
		}
	}
	return out
}

// tenantLabel names the default tenant in metric labels.
func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// feedCountersFor returns the tenant's wire-level feed counters, creating
// them on first use. The steady state is one lock-free sync.Map load, and
// connState additionally caches the result per connection, so a bound
// connection never re-resolves.
func (s *Server) feedCountersFor(tenant string) *feedCounters {
	v, ok := s.feeds.Load(tenant)
	if !ok {
		v, _ = s.feeds.LoadOrStore(tenant, &feedCounters{})
	}
	return v.(*feedCounters)
}

// Serve accepts connections on lis until Shutdown (or a listener error) and
// blocks meanwhile. After Shutdown it returns nil.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("rpc: server already shut down")
	}
	s.lis = lis
	s.mu.Unlock()
	defer close(s.done)
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("rpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handling.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains the server gracefully: stop accepting, let every
// connection finish the request it is handling (plus any already-read
// pipeline), flush responses, then close. It waits until the drain
// completes or ctx expires, whichever is first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	// Unblock readers parked in ReadFrame; the connection loop finishes the
	// current request and exits on the read error.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.handling.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		// Force-close whatever is still open.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
	if lis != nil {
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (s *Server) removeConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.handling.Done()
}

// MaxCatchupSnapshot bounds the per-connection accumulation of
// MsgCatchupChunk bytes, so a hostile peer cannot demand unbounded memory.
// A real snapshot of this size would not fit a follower's memory anyway
// (the decoded store roughly doubles it).
const MaxCatchupSnapshot = 2 << 30

// connState is one connection's server-side state: its identity (the
// replication source pin), the authenticated token's tenant grant, and the
// partially accumulated per-tenant catch-up snapshots.
type connState struct {
	id      uint64
	authed  bool            // hello accepted, or auth disabled
	all     bool            // token allows every tenant
	allowed map[string]bool // token's tenant grant (nil when unrestricted)

	catchup  map[string][]byte         // tenant -> accumulating snapshot
	replicas map[string]ReplicaBackend // tenants whose replica surface this conn touched

	// Per-connection cache of the last fed tenant's feed counters, so the
	// hot feed path resolves the sync.Map only when the tenant changes.
	feedTenant string
	feedCtrs   *feedCounters

	recs []trace.Record // where feed frames decode their records (see feedRow)
	req  request        // the frame being handled (see request)
}

// maxKeptRecords bounds the record scratch a connection keeps between frames
// (a few hundred KiB); a larger batch decodes into a slice of its own.
const maxKeptRecords = 4096

// granted reports whether the connection's token may address tenant.
func (cs *connState) granted(tenant string) bool {
	return cs.all || cs.allowed == nil || cs.allowed[tenant]
}

// serveConn is one connection's request loop: decode, handle, respond.
// Handling is strictly in read order, which makes the connection a FIFO
// channel (the replication stream's ordering guarantee) and responses
// naturally ordered.
func (s *Server) serveConn(conn net.Conn) {
	defer s.removeConn(conn)
	s.obsConns.Inc()
	cs := &connState{id: s.connSeq.Add(1), authed: s.auth == nil}
	// Each touched tenant's backend learns the source link died even on an
	// abrupt drop — that notification is what clears a follower's primary
	// link and makes it promotable.
	defer func() {
		for _, rb := range cs.replicas {
			rb.ConnClosed(cs.id)
		}
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	in := getFrameBuf() // read buffer, reused across frames: handle is
	// synchronous and copies what it keeps, so the next read may clobber it
	defer putFrameBuf(in)
	var out []byte
	for {
		f, buf, err := readFrameBuf(br, in.b)
		in.b = buf
		if err != nil {
			if errors.Is(err, ErrBadVersion) {
				// An old-protocol peer: answer with the one frame its
				// decoder will at least partially parse, naming the upgrade,
				// before hanging up.
				bw.Write(AppendFrame(out[:0], MsgErr, 0,
					appendWireError(nil, CodeBadVersion,
						fmt.Sprintf("server speaks protocol v%d; upgrade the client", ProtocolVersion))))
			}
			// EOF, deadline (drain), or protocol garbage: flush what we owe
			// and drop the connection.
			bw.Flush()
			return
		}
		s.obsFramesIn.Inc()
		s.obsBytesIn.Add(uint64(4 + frameHeaderMin + len(f.Tenant) + len(f.Body)))
		t0 := time.Now()
		out = s.handle(out[:0], cs, &f)
		if t := f.Type; t < latSlots {
			ns := uint64(time.Since(t0))
			s.lat[t].count.Inc()
			s.lat[t].sumNS.Add(ns)
			s.latHist[t].Observe(ns)
		}
		s.obsBytesOut.Add(uint64(len(out)))
		if _, err := bw.Write(out); err != nil {
			return
		}
		// Write batching: only flush when no further request is already
		// buffered, so a pipelined burst is answered with one syscall.
		if br.Buffered() < 4 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handle executes one request and appends the response frame to dst.
func (s *Server) handle(dst []byte, cs *connState, f *Frame) []byte {
	body, err := s.dispatch(cs, f)
	if err != nil {
		return AppendFrame(dst, MsgErr, f.ID, appendWireError(nil, codeOf(err), err.Error()))
	}
	return AppendFrame(dst, MsgOK, f.ID, body)
}

// dispatch takes one frame through the gates and into its row's handler.
// The order of the gates is the protocol's security story, stated here and
// nowhere else: the hello (which is how a connection becomes authenticated)
// → nothing else dispatches unauthenticated → the tenant id is well-formed →
// control-plane rows answer, filtered to the token's grant → the token is
// granted the frame's tenant → the tenant resolves (admission control; may
// create it) → the backend has the surface the row needs → the body decodes
// → the handler runs.
func (s *Server) dispatch(cs *connState, f *Frame) ([]byte, error) {
	var row msgRow // zero for a type this server does not know: no handler
	if int(f.Type) < len(msgRows) {
		row = msgRows[f.Type]
	}
	r := &cs.req
	*r = request{s: s, cs: cs, tenant: f.Tenant, body: f.Body}
	if f.Type == MsgHello {
		return row.handle(r)
	}
	if !cs.authed {
		return nil, refusal{CodeUnauthorized, errors.New("rpc: authentication required (send a hello with a bearer token first)")}
	}
	if err := ValidTenant(f.Tenant); err != nil {
		return nil, refusal{CodeBadRequest, err}
	}
	if row.surface == surfaceControl {
		return row.handle(r)
	}
	if !cs.granted(f.Tenant) {
		return nil, refusal{CodeUnauthorized, fmt.Errorf("rpc: token not authorized for tenant %q", f.Tenant)}
	}
	b, err := s.resolver.BackendFor(f.Tenant)
	if err != nil {
		if !errors.Is(err, ErrTenantBudget) {
			err = refusal{CodeBadRequest, err}
		}
		return nil, err
	}
	r.b = b
	if row.handle == nil {
		return nil, refusal{CodeUnsupported, fmt.Errorf("rpc: unknown request type %d", f.Type)}
	}
	has := true
	switch row.surface {
	case surfaceReplica:
		if r.replica, has = b.(ReplicaBackend); has {
			if cs.replicas == nil {
				cs.replicas = make(map[string]ReplicaBackend)
			}
			cs.replicas[f.Tenant] = r.replica
		}
	case surfaceLease:
		r.lease, has = b.(LeaseBackend)
	case surfaceHandoff:
		r.handoff, has = b.(HandoffBackend)
	}
	if !has {
		return nil, refusal{CodeUnsupported, fmt.Errorf("rpc: backend does not support %s", unsupported[row.surface])}
	}
	return row.handle(r)
}
