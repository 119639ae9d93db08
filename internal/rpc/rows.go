package rpc

import (
	"errors"
	"fmt"

	"farmer/internal/bin"
	"farmer/internal/core"
	"farmer/internal/trace"
)

// surface is what a request type needs of the server before its handler
// runs; Server.dispatch resolves it, or answers CodeUnsupported.
type surface uint8

const (
	// surfacePlain: the tenant's Backend.
	surfacePlain surface = iota
	// surfaceReplica: the backend's ReplicaBackend. Touching it registers the
	// connection as a potential replication source of that tenant, so the
	// backend hears ConnClosed when it drops.
	surfaceReplica
	// surfaceLease: the backend's LeaseBackend.
	surfaceLease
	// surfaceHandoff: the backend's HandoffBackend.
	surfaceHandoff
	// surfaceControl: control-plane — not addressed to one tenant (no grant
	// check, no BackendFor, so asking creates no tenant); the server answers,
	// and a listing shows a restricted token only its granted tenants.
	surfaceControl
)

// unsupported names the optional surface a backend lacks, in the
// CodeUnsupported answer.
var unsupported = [...]string{surfaceReplica: "replication", surfaceLease: "leases", surfaceHandoff: "live handoff"}

// request is one frame past Server.dispatch's gates, as its row's handler
// sees it. It lives in the connState and is overwritten per frame: a
// connection handles one request at a time.
type request struct {
	s      *Server
	cs     *connState
	tenant string
	body   []byte // aliases the connection's read buffer: copy what outlives the handler

	// What the row's surface resolved (all nil on a control-plane row).
	b       Backend
	replica ReplicaBackend
	lease   LeaseBackend
	handoff HandoffBackend
}

// fed counts one handled feed frame against the tenant's wire-level feed
// accounting, found through the connection's cache of the last fed tenant.
func (r *request) fed(records int) {
	cs := r.cs
	if cs.feedCtrs == nil || cs.feedTenant != r.tenant {
		cs.feedCtrs, cs.feedTenant = r.s.feedCountersFor(r.tenant), r.tenant
	}
	cs.feedCtrs.frames.Inc()
	cs.feedCtrs.records.Add(uint64(records))
}

// msgRow is everything the server knows about one message type: its name
// (MsgType.String — the farmer_rpc_latency_ns{msg} label and the `farmerctl
// top` column), the surface it needs, and its handler, which returns the
// MsgOK body or the error to answer (see codeOf).
type msgRow struct {
	name    string
	surface surface
	handle  func(*request) (body []byte, err error)
}

// row builds a request type's row from its body decoder and what to do with
// the decoded request. A body that does not decode is answered
// CodeBadRequest: retrying the same bytes cannot succeed.
func row[Req any](name string, s surface, decode func([]byte) (Req, error), run func(*request, Req) ([]byte, error)) msgRow {
	return msgRow{name, s, func(r *request) ([]byte, error) {
		req, err := decode(r.body)
		if err != nil {
			return nil, refusal{CodeBadRequest, err}
		}
		return run(r, req)
	}}
}

// feedRow builds the row of a frame that carries records to mine. They are
// read into the connection's scratch (grown to the largest batch seen, up to
// maxKeptRecords), not a slice per frame: a backend is done with the slice
// once it returns — FeedBatch returns after every shard has drained, the
// Replicator copies into its tail — and a Path is a string of its own.
func feedRow(name, what string, read func(*bin.Cursor, []trace.Record) []trace.Record, feed func(Backend, []trace.Record) error) msgRow {
	return msgRow{name, surfacePlain, func(r *request) ([]byte, error) {
		c := bin.Read(what, r.body)
		recs := read(&c, r.cs.recs)
		if cap(recs) <= maxKeptRecords {
			r.cs.recs = recs
		}
		if err := c.Done(); err != nil {
			return nil, refusal{CodeBadRequest, err}
		}
		if err := feed(r.b, recs); err != nil {
			return nil, err
		}
		r.fed(len(recs))
		return nil, nil
	}}
}

// refusal is an error that carries its own wire code: what the gates and
// the decoders answer. A backend's error has none and is classified by the
// sentinel it wraps.
type refusal struct {
	code Code
	error
}

func (e refusal) Unwrap() error { return e.error }

// codeOf maps an error to its MsgErr code. A follower's not-primary refusal,
// a stale epoch and a budget refusal keep their types across the wire, so a
// failing-over (or over-budget) client can match them with errors.Is.
func codeOf(err error) Code {
	var r refusal
	switch {
	case errors.As(err, &r):
		return r.code
	case errors.Is(err, ErrStaleEpoch):
		return CodeStaleEpoch
	case errors.Is(err, ErrNotPrimary):
		return CodeNotPrimary
	case errors.Is(err, ErrTenantBudget):
		return CodeTenantBudget
	}
	return CodeInternal
}

// empty decodes the body of a request that has none.
func empty(b []byte) (struct{}, error) {
	c := bin.Read("rpc: request", b)
	return struct{}{}, c.Done()
}

// acked adapts a backend call that answers with an empty MsgOK.
func acked(call func(*request) error) func(*request, struct{}) ([]byte, error) {
	return func(r *request, _ struct{}) ([]byte, error) { return nil, call(r) }
}

type predictReq struct {
	file trace.FileID
	k    int
}

type leaseReq struct {
	epoch     uint64
	candidate string
}

// replicateReq is a MsgReplicate body with its payload decoded: records, or
// a group-backup command.
type replicateReq struct {
	pos    uint64
	recs   []trace.Record
	groups *GroupsReq
}

func decodeReplicateReq(b []byte) (replicateReq, error) {
	pos, kind, payload, err := decodeReplicate(b)
	q := replicateReq{pos: pos}
	switch {
	case err != nil:
	case kind == replKindRecords:
		c := bin.Read("rpc: records", payload)
		q.recs = readRecords(&c, nil)
		err = c.Done()
	case kind == replKindGroups:
		var g GroupsReq
		g, err = decodeGroupsReq(payload)
		q.groups = &g
	default:
		err = fmt.Errorf("rpc: unknown replicate kind %d", kind)
	}
	return q, err
}

// msgRows is the protocol's dispatch table, indexed by MsgType: one row per
// request type (the two response types have a name only). Adding a frame is
// a constant, its codec and a row here.
var msgRows = [MsgErr + 1]msgRow{
	MsgOK:  {name: "ok"},
	MsgErr: {name: "err"},

	// MsgPing ignores its body: a ping of any size proves the frame survived.
	MsgPing: row("ping", surfacePlain,
		func([]byte) (struct{}, error) { return struct{}{}, nil },
		acked(func(*request) error { return nil })),
	MsgFeed: feedRow("feed", "rpc: feed",
		func(c *bin.Cursor, buf []trace.Record) []trace.Record {
			return append(buf[:0], bin.Via(c, trace.ConsumeRecord))
		},
		func(b Backend, recs []trace.Record) error { return b.Feed(&recs[0]) }),
	MsgFeedBatch: feedRow("feed_batch", "rpc: records", readRecords, Backend.FeedBatch),
	MsgPredict: row("predict", surfacePlain,
		func(b []byte) (q predictReq, err error) { q.file, q.k, err = decodePredictReq(b); return },
		func(r *request, q predictReq) ([]byte, error) {
			return trace.AppendFileIDs(nil, r.b.Predict(q.file, q.k)), nil
		}),
	MsgList: row("list", surfacePlain, decodeListReq,
		func(r *request, f trace.FileID) ([]byte, error) {
			return core.AppendCorrelators(nil, r.b.CorrelatorList(f)), nil
		}),
	MsgStats: row("stats", surfacePlain, empty,
		func(r *request, _ struct{}) ([]byte, error) { return appendStats(nil, r.b.Stats()), nil }),
	MsgSave: row("save", surfacePlain, empty, acked(func(r *request) error { return r.b.Save() })),
	MsgLoad: row("load", surfacePlain, empty, acked(func(r *request) error { return r.b.Load() })),

	MsgPromote: row("promote", surfaceReplica, empty, acked(func(r *request) error { return r.replica.Promote() })),
	// MsgCatchupChunk: raw snapshot bytes, accumulated per connection and
	// tenant so interleaved streams cannot mix.
	MsgCatchupChunk: row("catchup_chunk", surfaceReplica,
		func(b []byte) ([]byte, error) { return b, nil },
		func(r *request, piece []byte) ([]byte, error) {
			cs := r.cs
			if len(cs.catchup[r.tenant])+len(piece) > MaxCatchupSnapshot {
				delete(cs.catchup, r.tenant)
				return nil, refusal{CodeBadRequest, fmt.Errorf("rpc: catch-up snapshot exceeds %d bytes", MaxCatchupSnapshot)}
			}
			if cs.catchup == nil {
				cs.catchup = make(map[string][]byte)
			}
			cs.catchup[r.tenant] = append(cs.catchup[r.tenant], piece...)
			return nil, nil
		}),
	MsgCatchup: row("catchup", surfaceReplica, decodeCatchup,
		func(r *request, cut CatchupCut) ([]byte, error) {
			// A chunked transfer's final piece goes on the end of what
			// MsgCatchupChunk accumulated; a lone snapshot aliases the reused
			// read buffer and is copied, since the backend may hold it past
			// this request (bootstrap is cold, the copy is cheap).
			cut.Snapshot = append(r.cs.catchup[r.tenant], cut.Snapshot...)
			delete(r.cs.catchup, r.tenant)
			return nil, r.replica.Catchup(r.cs.id, cut)
		}),
	MsgCatchupDelta: row("catchup_delta", surfaceReplica, decodeCatchupDelta,
		func(r *request, d CatchupDelta) ([]byte, error) { return nil, r.replica.CatchupDelta(r.cs.id, d) }),
	MsgReplicate: row("replicate", surfaceReplica, decodeReplicateReq,
		func(r *request, q replicateReq) ([]byte, error) {
			if q.groups != nil {
				return nil, r.replica.ReplicateGroups(r.cs.id, q.pos, *q.groups)
			}
			return nil, r.replica.Replicate(r.cs.id, q.pos, q.recs)
		}),
	MsgGroups: row("groups", surfaceReplica, decodeGroupsReq,
		func(r *request, req GroupsReq) ([]byte, error) {
			info, err := r.replica.Groups(req)
			if err != nil {
				return nil, err
			}
			return appendGroupsInfo(nil, info), nil
		}),

	MsgLeaseRequest: row("lease_request", surfaceLease,
		func(b []byte) (q leaseReq, err error) { q.epoch, q.candidate, err = decodeLeaseReq(b); return },
		func(r *request, q leaseReq) ([]byte, error) {
			if q.epoch == 0 { // status query
				info := r.lease.LeaseStatus()
				return appendLeaseInfo(nil, &info), nil
			}
			return nil, r.lease.LeaseVote(q.epoch, q.candidate)
		}),
	MsgLeaseGrant: row("lease_grant", surfaceLease, decodeLeaseInfo,
		func(r *request, info LeaseInfo) ([]byte, error) { return nil, r.lease.LeaseGrant(r.cs.id, info) }),
	MsgHandoff: row("handoff", surfaceHandoff, decodeHandoffReq,
		func(r *request, target string) ([]byte, error) { return nil, r.handoff.Handoff(target) }),

	MsgHello: row("hello", surfaceControl, decodeHello,
		func(r *request, token string) ([]byte, error) {
			s, cs := r.s, r.cs
			if s.auth != nil {
				allowed, found := s.auth[token]
				if !found {
					return nil, refusal{CodeUnauthorized, errors.New("rpc: unknown bearer token")}
				}
				// A tenant-bound client stamps its tenant on the hello like any
				// other frame; refusing an out-of-grant binding here fails the
				// dial itself, before a single request dispatches.
				if r.tenant != "" && !s.authAll[token] && !allowed[r.tenant] {
					return nil, refusal{CodeUnauthorized, fmt.Errorf("rpc: token not authorized for tenant %q", r.tenant)}
				}
				cs.allowed, cs.all = allowed, s.authAll[token]
			}
			cs.authed = true
			return []byte{ProtocolVersion}, nil
		}),
	MsgTenants: row("tenants", surfaceControl, empty,
		func(r *request, _ struct{}) ([]byte, error) {
			infos := visible(r.cs, r.s.resolver.Tenants(), func(ti *TenantInfo) string { return ti.Name })
			return appendTenantInfos(nil, infos), nil
		}),
	MsgObs: row("obs", surfaceControl, decodeObsReq,
		func(r *request, topK int) ([]byte, error) {
			or, ok := r.s.resolver.(ObsResolver)
			if !ok {
				return nil, refusal{CodeUnsupported, errors.New("rpc: resolver does not support observability")}
			}
			rows := visible(r.cs, or.TenantObs(topK), func(row *TenantObs) string { return row.Name })
			// The wire layer owns the feed-frame accounting: stamp it on the
			// rows the resolver built.
			for i := range rows {
				if v, found := r.s.feeds.Load(rows[i].Name); found {
					fc := v.(*feedCounters)
					rows[i].FeedRecords, rows[i].FeedFrames = fc.records.Load(), fc.frames.Load()
				}
			}
			return appendTenantObs(nil, rows), nil
		}),
	// MsgWireStats: the latency table is server-wide, so there is nothing to
	// filter.
	MsgWireStats: row("wire_stats", surfaceControl, empty,
		func(r *request, _ struct{}) ([]byte, error) { return appendWireStats(nil, r.s.WireStats()), nil }),
}

// visible filters a control-plane listing to the tenants the connection's
// token is granted (in place: the listing is the resolver's fresh snapshot).
func visible[T any](cs *connState, rows []T, name func(*T) string) []T {
	vis := rows[:0]
	for i := range rows {
		if cs.granted(name(&rows[i])) {
			vis = append(vis, rows[i])
		}
	}
	return vis
}
