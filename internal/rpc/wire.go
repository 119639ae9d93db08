// Package rpc puts the FARMER miner on the wire: a length-prefixed binary
// framing (reusing internal/trace's record codec), a pipelined client with
// per-connection write batching, a graceful-drain server, and a NetOwner
// adapter so a partition.Dispatcher can route mining events to a remote
// process.
//
// Frame layout (little-endian, like every codec in this repository):
//
//	u32 length            of everything after this field (max MaxFrame)
//	u8  version           ProtocolVersion; a mismatch fails the connection
//	u8  type              MsgType
//	u64 id                request id, echoed by the response (pipelining key)
//	u8  tenantLen         tenant id length (0 = the default tenant)
//	...tenant             tenant id bytes (see ValidTenant)
//	...body               per-type payload, see the Msg* constants
//
// Responses reuse the same frame: MsgOK carries the per-request result
// body, MsgErr carries `u16 code, u32 len, msg`. Requests on one
// connection are handled in arrival order and answered in that order, so a
// connection is a FIFO channel — the property NetOwner's bit-identical
// mining rests on. The tenant field namespaces every request: one farmerd
// hosts many independent miners, and a frame addresses exactly one of them
// (the empty tenant keeps single-miner deployments and `farmerctl ping`
// trivial).
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"farmer/internal/core"
	"farmer/internal/lease"
	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// ProtocolVersion is the framing version byte. Bump it on any incompatible
// body or frame change; both ends refuse mismatched versions.
//
// Version history: 1 = the original tenantless frame; 2 = tenant id in the
// frame header plus the MsgHello auth handshake and MsgTenants listing.
const ProtocolVersion = 2

// MaxFrame bounds one frame's payload so a corrupt or hostile length field
// cannot demand an arbitrary allocation.
const MaxFrame = 1 << 26

// MaxTenantLen bounds a tenant id. Tenant ids name on-disk store
// directories, so the bound keeps paths sane everywhere.
const MaxTenantLen = 64

// ValidTenant reports whether name is usable as a tenant id: empty (the
// default tenant) or 1..MaxTenantLen characters from [a-zA-Z0-9._-], not
// starting with a dot. The charset makes a tenant id safe to use as a
// store directory name (farmerd -tenants-dir) without escaping, and the
// no-leading-dot rule excludes "." and ".." path traversal outright.
func ValidTenant(name string) error {
	if name == "" {
		return nil
	}
	if len(name) > MaxTenantLen {
		return fmt.Errorf("rpc: tenant id %q exceeds %d characters", name[:16]+"…", MaxTenantLen)
	}
	if name[0] == '.' {
		return fmt.Errorf("rpc: tenant id %q starts with a dot", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("rpc: tenant id %q contains %q (allowed: letters, digits, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// MsgType identifies a frame's body layout.
type MsgType uint8

// Request frames. Bodies:
//
//	MsgPing        (empty)                      → MsgOK (empty)
//	MsgFeed        trace.AppendRecord           → MsgOK (empty)
//	MsgFeedBatch   u32 count, records           → MsgOK (empty)
//	MsgPredict     u32 file, u32 k              → MsgOK u32 count, u32 files
//	MsgList        u32 file                     → MsgOK correlator list
//	MsgStats       (empty)                      → MsgOK stats body
//	MsgSave        (empty)                      → MsgOK (empty)
//	MsgLoad        (empty)                      → MsgOK (empty)
//	MsgApplyEvents u32 count, events            → MsgOK (empty)
//	MsgPromote     (empty)                      → MsgOK (empty)
//	MsgCatchup     catch-up cut                 → MsgOK (empty)
//	MsgReplicate   u64 pos, u8 kind, payload    → MsgOK (empty)
//	MsgGroups      groups request               → MsgOK groups info
const (
	MsgPing MsgType = iota + 1
	MsgFeed
	MsgFeedBatch
	MsgPredict
	MsgList
	MsgStats
	MsgSave
	MsgLoad
	MsgApplyEvents

	// Replication frames (see replicate.go and DESIGN.md "Replication &
	// failover"). MsgCatchup bootstraps a follower from the primary's
	// checkpoint cut; snapshots larger than one frame arrive as 0+
	// MsgCatchupChunk frames (raw snapshot bytes, accumulated per
	// connection) followed by the MsgCatchup carrying the final piece.
	// MsgReplicate streams the acked record feed (kind 0, the
	// trace.AppendRecord codec) and group-backup commands (kind 1);
	// MsgPromote asks a follower to start accepting writes — refused while
	// its primary's replication link is live (the split-brain guard).
	MsgPromote
	MsgCatchup
	MsgReplicate
	MsgGroups
	MsgCatchupChunk

	// MsgHello opens a connection (protocol v2): the body carries the
	// client's bearer token (empty when the server runs without auth), and
	// the MsgOK response body is the server's protocol version byte. A
	// server configured with auth refuses every other request type until a
	// hello presented a valid token — rejected before any frame dispatch.
	MsgHello
	// MsgTenants lists the live tenants: the MsgOK body is a TenantInfo
	// list (name + stats per tenant) — the read behind `farmerctl tenants`.
	MsgTenants
	// MsgCatchupDelta catches a restarted follower up from its own resumable
	// position with a chunked replay of the records it missed instead of a
	// full snapshot: u64 fromPos, u64 fingerprint, u32 fileCount, u8 flags
	// (bit 0 = final), u32 count + records. The fingerprint/fileCount fields
	// are zero on non-final chunks; the final chunk carries the primary's
	// current state fingerprint, which the follower verifies after replay
	// exactly like a full cut's. A server that predates the frame answers
	// CodeUnsupported, and the primary falls back to the full snapshot path.
	MsgCatchupDelta

	// MsgObs is the live-observability read behind `farmerctl top` and the
	// per-tenant columns of `farmerctl tenants`: request `u32 k, u8 flags`
	// (k = how many top correlation groups per tenant, 0 = none; flags
	// reserved), response a TenantObs list. Like MsgTenants it is
	// control-plane — not addressed to one tenant — and the listing is
	// filtered to the connection's granted tenants. (The name MsgStats was
	// already taken by the v0 single-miner stats frame; MsgObs is its
	// fleet-wide, per-tenant successor.)
	MsgObs

	// Lease frames (see internal/lease and DESIGN.md "Leases, epochs & live
	// handoff"). MsgLeaseRequest with epoch 0 is a status query — the MsgOK
	// body is the server's current LeaseInfo — and with epoch > 0 a vote
	// request for `candidate` at that epoch, answered empty-OK (vote granted)
	// or CodeStaleEpoch (term already taken, or the sitting leader's lease
	// is still live). MsgLeaseGrant announces a term: a renewal on the
	// replication stream, or — with the transfer flag — a live handoff that
	// makes the receiving follower the leader of the carried epoch.
	MsgLeaseRequest
	MsgLeaseGrant
	// MsgHandoff asks a leader to hand its lease (and its write role) to the
	// follower at the carried address, catching it up first if needed — the
	// frame behind `farmerctl rebalance`.
	MsgHandoff
	// MsgWireStats reads the server's per-request-type wire latency
	// accounting: empty request, response a WireStat list. Control-plane,
	// like MsgObs.
	MsgWireStats

	// Response frames.
	MsgOK  MsgType = 0x40
	MsgErr MsgType = 0x41
)

// String names a message type for metric labels and the `farmerctl top`
// latency table.
func (t MsgType) String() string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgFeed:
		return "feed"
	case MsgFeedBatch:
		return "feed_batch"
	case MsgPredict:
		return "predict"
	case MsgList:
		return "list"
	case MsgStats:
		return "stats"
	case MsgSave:
		return "save"
	case MsgLoad:
		return "load"
	case MsgApplyEvents:
		return "apply_events"
	case MsgPromote:
		return "promote"
	case MsgCatchup:
		return "catchup"
	case MsgReplicate:
		return "replicate"
	case MsgGroups:
		return "groups"
	case MsgCatchupChunk:
		return "catchup_chunk"
	case MsgHello:
		return "hello"
	case MsgTenants:
		return "tenants"
	case MsgCatchupDelta:
		return "catchup_delta"
	case MsgObs:
		return "obs"
	case MsgLeaseRequest:
		return "lease_request"
	case MsgLeaseGrant:
		return "lease_grant"
	case MsgHandoff:
		return "handoff"
	case MsgWireStats:
		return "wire_stats"
	case MsgOK:
		return "ok"
	case MsgErr:
		return "err"
	}
	return fmt.Sprintf("msg_%d", uint8(t))
}

// Frame is one decoded wire frame.
type Frame struct {
	Type   MsgType
	ID     uint64
	Tenant string
	Body   []byte
}

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("rpc: frame exceeds MaxFrame")
	// ErrBadVersion reports a protocol version mismatch — either a peer's
	// frame carried the wrong version byte, or (client-side) the server
	// closed the connection on our hello without answering, the signature
	// of a pre-tenant (v1) farmerd that drops unrecognized versions.
	ErrBadVersion = errors.New("rpc: protocol version mismatch")
)

// frameHeaderMin is the fixed payload prefix: version, type, id, tenantLen.
const frameHeaderMin = 1 + 1 + 8 + 1

// AppendFrame appends one encoded frame addressing the default tenant.
func AppendFrame(dst []byte, typ MsgType, id uint64, body []byte) []byte {
	return AppendFrameTenant(dst, typ, id, "", body)
}

// AppendFrameTenant appends one encoded frame addressing tenant. The tenant
// id must satisfy ValidTenant; longer ids are truncated at the length byte,
// so callers validate first.
func AppendFrameTenant(dst []byte, typ MsgType, id uint64, tenant string, body []byte) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(frameHeaderMin+len(tenant)+len(body)))
	dst = append(dst, ProtocolVersion, byte(typ))
	dst = le.AppendUint64(dst, id)
	dst = append(dst, byte(len(tenant)))
	dst = append(dst, tenant...)
	return append(dst, body...)
}

// ReadFrame decodes one frame from br. Body bytes are freshly allocated and
// safe to retain.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	f, _, err := readFrameBuf(br, nil)
	return f, err
}

// readFrameBuf decodes one frame into buf (grown as needed) and returns the
// buffer for reuse. The frame's Body ALIASES the buffer — valid only until
// the next readFrameBuf call with it — which is what lets the server's
// request loop read the hot feed path without a per-frame allocation; pass
// nil to allocate fresh (ReadFrame's retain-safe contract).
func readFrameBuf(br *bufio.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 {
		return Frame{}, buf, fmt.Errorf("rpc: short frame: %d bytes", n)
	}
	if n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return Frame{}, buf, fmt.Errorf("rpc: truncated frame: %w", err)
	}
	// Version before the v2 length floor: a v1 frame (10-byte header) must
	// surface as a version mismatch — which the server answers with an
	// upgrade hint — not as anonymous protocol garbage.
	if payload[0] != ProtocolVersion {
		return Frame{}, buf, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, payload[0], ProtocolVersion)
	}
	if n < frameHeaderMin {
		return Frame{}, buf, fmt.Errorf("rpc: short frame: %d bytes", n)
	}
	tl := int(payload[10])
	if frameHeaderMin+tl > int(n) {
		return Frame{}, buf, fmt.Errorf("rpc: tenant id truncated: %d bytes claimed, %d in frame", tl, int(n)-frameHeaderMin)
	}
	return Frame{
		Type:   MsgType(payload[1]),
		ID:     binary.LittleEndian.Uint64(payload[2:10]),
		Tenant: string(payload[frameHeaderMin : frameHeaderMin+tl]),
		Body:   payload[frameHeaderMin+tl:],
	}, buf, nil
}

// Code classifies a MsgErr response.
type Code uint16

const (
	// CodeBadRequest: the request body failed to decode or violated a
	// protocol invariant; retrying the same bytes cannot succeed.
	CodeBadRequest Code = 1
	// CodeInternal: the backend returned an error (persistence failure,
	// invalid state); the message carries the backend's text.
	CodeInternal Code = 2
	// Code 3 is reserved. (A draining server finishes the in-flight
	// pipeline and then closes the connection, so "shutting down" reaches
	// clients as a transport error, not an error frame.)

	// CodeUnsupported: the request type is unknown to this server.
	CodeUnsupported Code = 4

	// CodeNotPrimary: the server is an un-promoted replication follower and
	// the request mutates mined state; the caller should fail over to (or
	// promote) a writable server. Matched client-side by ErrNotPrimary.
	CodeNotPrimary Code = 5

	// CodeUnauthorized: the connection's bearer token is missing, unknown,
	// or not allowed the frame's tenant. Matched client-side by
	// ErrUnauthorized. The server closes the connection after answering.
	CodeUnauthorized Code = 6

	// CodeTenantBudget: admitting or growing the frame's tenant would
	// exceed a configured per-tenant resource budget (tenant count, memory
	// cap). Matched client-side by ErrTenantBudget; other tenants on the
	// same server are unaffected.
	CodeTenantBudget Code = 7

	// CodeBadVersion: the peer's frame carried a protocol version this
	// server does not speak. Answered once with the server's own version in
	// the message, then the connection closes. Matched by ErrBadVersion.
	CodeBadVersion Code = 8

	// CodeStaleEpoch: the request acted under a lease epoch lower than one
	// the server has observed — a write from a deposed leader, a vote for a
	// stale candidate, a grant that would regress the term. Matched
	// client-side by ErrStaleEpoch; the caller seeks the current leader.
	CodeStaleEpoch Code = 9
)

// ErrNotPrimary marks a write refused by an un-promoted replication
// follower. Server backends return errors wrapping it (the server answers
// CodeNotPrimary); client callers match it with errors.Is against the
// decoded *WireError — farmer.Dial's failover consumes exactly that.
var ErrNotPrimary = errors.New("rpc: not primary")

// ErrUnauthorized marks a request refused by the server's bearer-token
// auth before any dispatch: the token is missing, unknown, or not allowed
// the addressed tenant. Matched with errors.Is on either end.
var ErrUnauthorized = errors.New("rpc: unauthorized")

// ErrTenantBudget marks a request refused by per-tenant admission control:
// serving it would exceed a configured tenant budget (max tenants, memory
// cap). The refusal is typed so a caller can tell resource pressure from a
// failure — and the server stays healthy for every other tenant.
var ErrTenantBudget = errors.New("rpc: tenant budget exceeded")

// ErrStaleEpoch marks an action refused for carrying a lease epoch lower
// than one already observed. It is the lease package's sentinel so the
// coordination layer, the wire, and serve.go all agree on one identity;
// clients treat it like ErrNotPrimary (seek the current leader, retry).
var ErrStaleEpoch = lease.ErrStaleEpoch

// WireError is a MsgErr response surfaced to the caller.
type WireError struct {
	Code Code
	Msg  string
}

func (e *WireError) Error() string { return fmt.Sprintf("rpc: remote error %d: %s", e.Code, e.Msg) }

// Is maps wire error codes back to this package's sentinel errors, so
// errors.Is works identically on both ends of the connection.
func (e *WireError) Is(target error) bool {
	switch target {
	case ErrNotPrimary:
		return e.Code == CodeNotPrimary
	case ErrUnauthorized:
		return e.Code == CodeUnauthorized
	case ErrTenantBudget:
		return e.Code == CodeTenantBudget
	case ErrBadVersion:
		return e.Code == CodeBadVersion
	case ErrStaleEpoch:
		return e.Code == CodeStaleEpoch
	}
	return false
}

func appendWireError(dst []byte, code Code, msg string) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint16(dst, uint16(code))
	dst = le.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

func decodeWireError(body []byte) error {
	if len(body) < 6 {
		return fmt.Errorf("rpc: malformed error frame (%d bytes)", len(body))
	}
	le := binary.LittleEndian
	code := Code(le.Uint16(body[:2]))
	n := le.Uint32(body[2:6])
	if uint32(len(body)-6) < n {
		return fmt.Errorf("rpc: malformed error frame: message truncated")
	}
	return &WireError{Code: code, Msg: string(body[6 : 6+n])}
}

// ------------------------------------------------------------ body codecs

// Float64 fields travel as their exact bit patterns: a mined degree must
// survive the wire bit-identically for a remote miner to fingerprint equal
// to a local one.
func f64bits(v float64) uint64 { return math.Float64bits(v) }
func f64from(b uint64) float64 { return math.Float64frombits(b) }

func consumeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("rpc: truncated u32")
	}
	return binary.LittleEndian.Uint32(b[:4]), b[4:], nil
}

func consumeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("rpc: truncated u64")
	}
	return binary.LittleEndian.Uint64(b[:8]), b[8:], nil
}

// consumeCount reads a u32 element count and bounds it by what the
// remaining bytes could possibly hold (elemMin = the element's minimum
// encoded size), so a flipped count cannot demand a huge allocation.
func consumeCount(b []byte, elemMin int) (int, []byte, error) {
	n, rest, err := consumeU32(b)
	if err != nil {
		return 0, nil, err
	}
	if elemMin > 0 && int(n) > len(rest)/elemMin {
		return 0, nil, fmt.Errorf("rpc: count %d exceeds remaining %d bytes", n, len(rest))
	}
	return int(n), rest, nil
}

// appendRecords encodes a batch body: count + trace records.
func appendRecords(dst []byte, recs []trace.Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		dst = trace.AppendRecord(dst, &recs[i])
	}
	return dst
}

func consumeRecords(b []byte) ([]trace.Record, error) {
	n, b, err := consumeCount(b, trace.RecordFixedLen)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		var r trace.Record
		if r, b, err = trace.ConsumeRecord(b); err != nil {
			return nil, fmt.Errorf("rpc: record %d: %w", i, err)
		}
		recs = append(recs, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after records", len(b))
	}
	return recs, nil
}

// appendFileIDs encodes a Predict result body.
func appendFileIDs(dst []byte, files []trace.FileID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(files)))
	for _, f := range files {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
	}
	return dst
}

func consumeFileIDs(b []byte) ([]trace.FileID, error) {
	n, b, err := consumeCount(b, 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]trace.FileID, n)
	for i := range out {
		var v uint32
		if v, b, err = consumeU32(b); err != nil {
			return nil, err
		}
		out[i] = trace.FileID(v)
	}
	return out, nil
}

// Correlator list body: u32 count, then (u32 file, u64 degree, u64 sim,
// u64 freq) with the float64 bit patterns — degrees survive the wire
// bit-exactly, which the cross-process fingerprint tests rely on.
func appendCorrelators(dst []byte, list []core.Correlator) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(list)))
	for _, c := range list {
		dst = le.AppendUint32(dst, uint32(c.File))
		dst = le.AppendUint64(dst, f64bits(c.Degree))
		dst = le.AppendUint64(dst, f64bits(c.Sim))
		dst = le.AppendUint64(dst, f64bits(c.Freq))
	}
	return dst
}

func consumeCorrelators(b []byte) ([]core.Correlator, error) {
	n, b, err := consumeCount(b, 28)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	list := make([]core.Correlator, n)
	for i := range list {
		var f uint32
		var deg, sim, freq uint64
		if f, b, err = consumeU32(b); err != nil {
			return nil, err
		}
		if deg, b, err = consumeU64(b); err != nil {
			return nil, err
		}
		if sim, b, err = consumeU64(b); err != nil {
			return nil, err
		}
		if freq, b, err = consumeU64(b); err != nil {
			return nil, err
		}
		list[i] = core.Correlator{
			File:   trace.FileID(f),
			Degree: f64from(deg),
			Sim:    f64from(sim),
			Freq:   f64from(freq),
		}
	}
	return list, nil
}

// Stats body: seven u64 fields in declaration order (Fed, TrackedFiles,
// Lists, Correlators, GraphNodes, GraphEdges, MemoryBytes).
func appendStats(dst []byte, st core.Stats) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, st.Fed)
	for _, v := range [...]int{st.TrackedFiles, st.Lists, st.Correlators, st.GraphNodes, st.GraphEdges} {
		dst = le.AppendUint64(dst, uint64(v))
	}
	return le.AppendUint64(dst, uint64(st.MemoryBytes))
}

func consumeStats(b []byte) (core.Stats, error) {
	if len(b) != 7*8 {
		return core.Stats{}, fmt.Errorf("rpc: stats body is %d bytes, want 56", len(b))
	}
	le := binary.LittleEndian
	u := func(i int) uint64 { return le.Uint64(b[i*8 : i*8+8]) }
	return core.Stats{
		Fed:          u(0),
		TrackedFiles: int(u(1)),
		Lists:        int(u(2)),
		Correlators:  int(u(3)),
		GraphNodes:   int(u(4)),
		GraphEdges:   int(u(5)),
		MemoryBytes:  int64(u(6)),
	}, nil
}

// Event body: u32 count, then per event
//
//	u8 flags (bit 0: access), u32 pred, u32 succ, u64 credit, u64 seq,
//	vector: u32 scalarCount, (u32 len, bytes)*, u32 pathLen, path
func appendEvents(dst []byte, evs []partition.Event) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(evs)))
	for i := range evs {
		ev := &evs[i]
		var flags byte
		if ev.Access {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = le.AppendUint32(dst, uint32(ev.Pred))
		dst = le.AppendUint32(dst, uint32(ev.Succ))
		dst = le.AppendUint64(dst, f64bits(ev.Credit))
		dst = le.AppendUint64(dst, ev.Seq)
		dst = appendVector(dst, &ev.Vec)
	}
	return dst
}

func consumeEvents(b []byte) ([]partition.Event, error) {
	// Minimum event size: flags + ids + credit + seq + empty vector (8).
	n, b, err := consumeCount(b, 1+4+4+8+8+8)
	if err != nil {
		return nil, err
	}
	evs := make([]partition.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 25 {
			return nil, fmt.Errorf("rpc: event %d truncated", i)
		}
		le := binary.LittleEndian
		var ev partition.Event
		if b[0]&^1 != 0 {
			return nil, fmt.Errorf("rpc: event %d: unknown flag bits %#x", i, b[0])
		}
		ev.Access = b[0]&1 != 0
		ev.Pred = trace.FileID(le.Uint32(b[1:5]))
		ev.Succ = trace.FileID(le.Uint32(b[5:9]))
		ev.Credit = f64from(le.Uint64(b[9:17]))
		ev.Seq = le.Uint64(b[17:25])
		b = b[25:]
		if ev.Vec, b, err = consumeVector(b); err != nil {
			return nil, fmt.Errorf("rpc: event %d vector: %w", i, err)
		}
		evs = append(evs, ev)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after events", len(b))
	}
	return evs, nil
}

func appendVector(dst []byte, v *vsm.Vector) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(v.Scalars)))
	for _, sc := range v.Scalars {
		dst = le.AppendUint32(dst, uint32(len(sc)))
		dst = append(dst, sc...)
	}
	dst = le.AppendUint32(dst, uint32(len(v.Path)))
	return append(dst, v.Path...)
}

func consumeVector(b []byte) (vsm.Vector, []byte, error) {
	var v vsm.Vector
	n, b, err := consumeCount(b, 4)
	if err != nil {
		return v, nil, err
	}
	if n > 0 {
		v.Scalars = make([]string, 0, n)
	}
	str := func() (string, error) {
		var l uint32
		if l, b, err = consumeU32(b); err != nil {
			return "", err
		}
		if l > trace.MaxPathLen {
			return "", fmt.Errorf("rpc: unreasonable string length %d", l)
		}
		if uint32(len(b)) < l {
			return "", fmt.Errorf("rpc: string truncated: want %d bytes, have %d", l, len(b))
		}
		s := string(b[:l])
		b = b[l:]
		return s, nil
	}
	for i := 0; i < n; i++ {
		sc, err := str()
		if err != nil {
			return v, nil, err
		}
		v.Scalars = append(v.Scalars, sc)
	}
	path, err := str()
	if err != nil {
		return v, nil, err
	}
	v.Path = path
	return v, b, nil
}

// ------------------------------------------------------- replication bodies

// CatchupCut is one checkpoint cut of a primary's complete mined state: the
// stream position (records ingested — the cut's WAL position), the state
// fingerprint the follower verifies BEFORE installing, the dense FileID
// bound the fingerprint hashes over, and the kvstore snapshot bytes
// (Store.Snapshot framing) holding lists, vectors, graph and lookahead
// window.
type CatchupCut struct {
	Pos         uint64
	Fingerprint uint64
	FileCount   int
	Snapshot    []byte
}

// MsgCatchup body: u64 pos, u64 fingerprint, u32 fileCount, snapshot bytes.
func appendCatchup(dst []byte, cut *CatchupCut) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, cut.Pos)
	dst = le.AppendUint64(dst, cut.Fingerprint)
	dst = le.AppendUint32(dst, uint32(cut.FileCount))
	return append(dst, cut.Snapshot...)
}

func decodeCatchup(b []byte) (CatchupCut, error) {
	if len(b) < 20 {
		return CatchupCut{}, fmt.Errorf("rpc: catchup body is %d bytes, want >= 20", len(b))
	}
	le := binary.LittleEndian
	return CatchupCut{
		Pos:         le.Uint64(b[:8]),
		Fingerprint: le.Uint64(b[8:16]),
		FileCount:   int(le.Uint32(b[16:20])),
		Snapshot:    b[20:],
	}, nil
}

// CatchupDelta is one chunk of a delta catch-up: the records a restarted
// follower missed, replayed through its own miner (mining is deterministic,
// so replay from an identical base state reproduces the primary's state
// bit-identically). FromPos is the stream position BEFORE this chunk's
// records; the follower refuses a position that does not equal its own fed
// counter. Final marks the last chunk, whose Fingerprint/FileCount the
// follower verifies against its post-replay state.
type CatchupDelta struct {
	FromPos     uint64
	Fingerprint uint64
	FileCount   int
	Final       bool
	Records     []trace.Record
}

// MsgCatchupDelta body: u64 fromPos, u64 fingerprint, u32 fileCount,
// u8 flags (bit 0 = final), u32 count + records.
func appendCatchupDelta(dst []byte, d *CatchupDelta) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, d.FromPos)
	dst = le.AppendUint64(dst, d.Fingerprint)
	dst = le.AppendUint32(dst, uint32(d.FileCount))
	var flags byte
	if d.Final {
		flags |= 1
	}
	dst = append(dst, flags)
	return appendRecords(dst, d.Records)
}

func decodeCatchupDelta(b []byte) (CatchupDelta, error) {
	if len(b) < 21 {
		return CatchupDelta{}, fmt.Errorf("rpc: catchup delta body is %d bytes, want >= 21", len(b))
	}
	le := binary.LittleEndian
	flags := b[20]
	if flags&^byte(1) != 0 {
		return CatchupDelta{}, fmt.Errorf("rpc: catchup delta has unknown flag bits %#x", flags)
	}
	recs, err := consumeRecords(b[21:])
	if err != nil {
		return CatchupDelta{}, err
	}
	return CatchupDelta{
		FromPos:     le.Uint64(b[:8]),
		Fingerprint: le.Uint64(b[8:16]),
		FileCount:   int(le.Uint32(b[16:20])),
		Final:       flags&1 != 0,
		Records:     recs,
	}, nil
}

// Replicate frame kinds.
const (
	replKindRecords byte = 0 // payload: u32 count + trace.AppendRecord records
	replKindGroups  byte = 1 // payload: GroupsReq (a group-backup command)
)

// MsgReplicate body: u64 pos, u8 kind, payload. pos is the stream position
// BEFORE the payload applies; a follower refuses a position that does not
// equal its own record count, so a gap or reorder can never silently
// corrupt the replica.
func appendReplicateRecords(dst []byte, pos uint64, recs []trace.Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, pos)
	dst = append(dst, replKindRecords)
	return appendRecords(dst, recs)
}

func appendReplicateGroups(dst []byte, pos uint64, req *GroupsReq) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, pos)
	dst = append(dst, replKindGroups)
	return appendGroupsReq(dst, req)
}

func decodeReplicate(b []byte) (pos uint64, kind byte, payload []byte, err error) {
	if len(b) < 9 {
		return 0, 0, nil, fmt.Errorf("rpc: replicate body is %d bytes, want >= 9", len(b))
	}
	return binary.LittleEndian.Uint64(b[:8]), b[8], b[9:], nil
}

// GroupsReq parameterises a replica-group operation (paper §4.3): build
// groups over [0, FileCount) with mutual-correlation threshold MinDegree.
// Read reports the manager's current state without rebuilding or cutting —
// the verification read a follower always answers.
type GroupsReq struct {
	FileCount int
	MinDegree float64
	Read      bool
}

// MsgGroups body: u32 fileCount, u64 minDegree bits, u8 flags (bit 0 =
// read-only).
func appendGroupsReq(dst []byte, req *GroupsReq) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(req.FileCount))
	dst = le.AppendUint64(dst, f64bits(req.MinDegree))
	var flags byte
	if req.Read {
		flags |= 1
	}
	return append(dst, flags)
}

func decodeGroupsReq(b []byte) (GroupsReq, error) {
	if len(b) != 13 {
		return GroupsReq{}, fmt.Errorf("rpc: groups body is %d bytes, want 13", len(b))
	}
	le := binary.LittleEndian
	if b[12]&^1 != 0 {
		return GroupsReq{}, fmt.Errorf("rpc: groups request: unknown flag bits %#x", b[12])
	}
	return GroupsReq{
		FileCount: int(le.Uint32(b[:4])),
		MinDegree: f64from(le.Uint64(b[4:12])),
		Read:      b[12]&1 != 0,
	}, nil
}

// GroupsInfo summarises a replica-group manager: the fingerprint covers
// every group's membership and backup version, so a primary and a follower
// agree on it iff their group-atomic backups are identical.
type GroupsInfo struct {
	Fingerprint uint64
	Groups      int
	Versions    uint64 // sum of per-group backup versions (cut count)
}

func appendGroupsInfo(dst []byte, info GroupsInfo) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, info.Fingerprint)
	dst = le.AppendUint32(dst, uint32(info.Groups))
	return le.AppendUint64(dst, info.Versions)
}

func decodeGroupsInfo(b []byte) (GroupsInfo, error) {
	if len(b) != 20 {
		return GroupsInfo{}, fmt.Errorf("rpc: groups info is %d bytes, want 20", len(b))
	}
	le := binary.LittleEndian
	return GroupsInfo{
		Fingerprint: le.Uint64(b[:8]),
		Groups:      int(le.Uint32(b[8:12])),
		Versions:    le.Uint64(b[12:20]),
	}, nil
}

// ------------------------------------------------------- tenancy bodies

// MsgHello request body: u32 tokenLen, token bytes.
func appendHello(dst []byte, token string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(token)))
	return append(dst, token...)
}

func decodeHello(b []byte) (token string, err error) {
	if len(b) < 4 {
		return "", fmt.Errorf("rpc: hello body is %d bytes, want >= 4", len(b))
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if uint32(len(b)-4) != n {
		return "", fmt.Errorf("rpc: hello token length %d does not match body", n)
	}
	return string(b[4:]), nil
}

// TenantInfo is one live tenant in a MsgTenants response.
type TenantInfo struct {
	Name  string
	Stats core.Stats
}

// MsgTenants response body: u32 count, then per tenant u8 nameLen, name,
// stats (the 56-byte appendStats layout).
func appendTenantInfos(dst []byte, infos []TenantInfo) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(infos)))
	for i := range infos {
		dst = append(dst, byte(len(infos[i].Name)))
		dst = append(dst, infos[i].Name...)
		dst = appendStats(dst, infos[i].Stats)
	}
	return dst
}

func decodeTenantInfos(b []byte) ([]TenantInfo, error) {
	n, b, err := consumeCount(b, 1+7*8)
	if err != nil {
		return nil, err
	}
	infos := make([]TenantInfo, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("rpc: tenant %d truncated", i)
		}
		nl := int(b[0])
		b = b[1:]
		if len(b) < nl+7*8 {
			return nil, fmt.Errorf("rpc: tenant %d truncated", i)
		}
		name := string(b[:nl])
		st, err := consumeStats(b[nl : nl+7*8])
		if err != nil {
			return nil, fmt.Errorf("rpc: tenant %d: %w", i, err)
		}
		b = b[nl+7*8:]
		infos = append(infos, TenantInfo{Name: name, Stats: st})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after tenants", len(b))
	}
	return infos, nil
}

// ------------------------------------------------------- lease bodies

// LeaseInfo is one lease term on the wire: the epoch, the leader's dial
// address (leader ids ARE addresses, so a client that learns the holder can
// go there), the remaining TTL, and two flags — Self ("the answering server
// is this leader") on status responses, Transfer ("adopt this term as your
// own and start serving writes") on handoff grants.
type LeaseInfo struct {
	Epoch    uint64
	Leader   string
	TTLMS    uint64
	Self     bool
	Transfer bool
}

const (
	leaseFlagSelf     byte = 1 << 0
	leaseFlagTransfer byte = 1 << 1
)

// LeaseInfo body: u64 epoch, u64 ttlMS, u8 flags, u8 leaderLen, leader.
func appendLeaseInfo(dst []byte, info *LeaseInfo) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, info.Epoch)
	dst = le.AppendUint64(dst, info.TTLMS)
	var flags byte
	if info.Self {
		flags |= leaseFlagSelf
	}
	if info.Transfer {
		flags |= leaseFlagTransfer
	}
	dst = append(dst, flags, byte(len(info.Leader)))
	return append(dst, info.Leader...)
}

func decodeLeaseInfo(b []byte) (LeaseInfo, error) {
	if len(b) < 18 {
		return LeaseInfo{}, fmt.Errorf("rpc: lease info is %d bytes, want >= 18", len(b))
	}
	le := binary.LittleEndian
	flags := b[16]
	if flags&^(leaseFlagSelf|leaseFlagTransfer) != 0 {
		return LeaseInfo{}, fmt.Errorf("rpc: lease info has unknown flag bits %#x", flags)
	}
	nl := int(b[17])
	if len(b) != 18+nl {
		return LeaseInfo{}, fmt.Errorf("rpc: lease info leader length %d does not match body", nl)
	}
	return LeaseInfo{
		Epoch:    le.Uint64(b[:8]),
		TTLMS:    le.Uint64(b[8:16]),
		Self:     flags&leaseFlagSelf != 0,
		Transfer: flags&leaseFlagTransfer != 0,
		Leader:   string(b[18:]),
	}, nil
}

// MsgLeaseRequest body: u64 epoch (0 = status query), u8 candLen, candidate.
func appendLeaseReq(dst []byte, epoch uint64, candidate string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = append(dst, byte(len(candidate)))
	return append(dst, candidate...)
}

func decodeLeaseReq(b []byte) (epoch uint64, candidate string, err error) {
	if len(b) < 9 {
		return 0, "", fmt.Errorf("rpc: lease request is %d bytes, want >= 9", len(b))
	}
	nl := int(b[8])
	if len(b) != 9+nl {
		return 0, "", fmt.Errorf("rpc: lease request candidate length %d does not match body", nl)
	}
	return binary.LittleEndian.Uint64(b[:8]), string(b[9:]), nil
}

// MsgHandoff body: u16 addrLen, target address.
func appendHandoffReq(dst []byte, target string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(target)))
	return append(dst, target...)
}

func decodeHandoffReq(b []byte) (string, error) {
	if len(b) < 2 {
		return "", fmt.Errorf("rpc: handoff body is %d bytes, want >= 2", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[:2]))
	if len(b) != 2+n {
		return "", fmt.Errorf("rpc: handoff target length %d does not match body", n)
	}
	if n == 0 {
		return "", fmt.Errorf("rpc: handoff target is empty")
	}
	return string(b[2:]), nil
}

// WireStat is one request type's server-side latency accounting: how many
// frames of that type were handled and their summed handling time.
type WireStat struct {
	Type  MsgType
	Count uint64
	SumNS uint64
}

// MsgWireStats response body: u32 count, then per entry u8 type, u64 count,
// u64 sumNS.
func appendWireStats(dst []byte, stats []WireStat) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(stats)))
	for _, s := range stats {
		dst = append(dst, byte(s.Type))
		dst = le.AppendUint64(dst, s.Count)
		dst = le.AppendUint64(dst, s.SumNS)
	}
	return dst
}

func decodeWireStats(b []byte) ([]WireStat, error) {
	n, b, err := consumeCount(b, 1+8+8)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	out := make([]WireStat, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 17 {
			return nil, fmt.Errorf("rpc: wire stat %d truncated", i)
		}
		out = append(out, WireStat{
			Type:  MsgType(b[0]),
			Count: le.Uint64(b[1:9]),
			SumNS: le.Uint64(b[9:17]),
		})
		b = b[17:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after wire stats", len(b))
	}
	return out, nil
}

// ------------------------------------------------------- observability bodies

// NeverCheckpointed is the CkptAgeMS value of a tenant that has never
// completed a checkpoint (or runs memory-only).
const NeverCheckpointed = ^uint64(0)

// ObsGroup is one correlation group in a TenantObs row: the seed file, its
// correlated members (strongest first), and the group strength (sum of the
// seed's Correlator-List degrees) — the paper's §4 artifacts, live.
type ObsGroup struct {
	Seed     trace.FileID
	Strength float64
	Files    []trace.FileID
}

// TenantObs is one tenant's live-observability row in a MsgObs response.
// FeedRecords/FeedFrames count what arrived over this server's wire (the
// rpc layer stamps them); everything else comes from the tenant's backend.
type TenantObs struct {
	Name          string
	Fed           uint64 // records mined (the model's stream position)
	MemoryBytes   uint64 // estimated correlation-state footprint
	TapDepth      uint64 // events queued on tap mailboxes right now
	TapDropped    uint64 // tap events dropped to lagging consumers
	FeedRecords   uint64 // records arrived via Feed/FeedBatch frames
	FeedFrames    uint64 // Feed/FeedBatch frames handled
	ReplLagMax    uint64 // worst follower lag in records (0 = caught up or none)
	Followers     uint64 // live replication followers
	CkptAgeMS     uint64 // ms since the last completed checkpoint; NeverCheckpointed if none
	CkptEpoch     uint64 // checkpoint epoch (m/epoch protocol)
	CkptFull      uint64 // full checkpoints completed
	CkptDelta     uint64 // incremental checkpoints completed
	PredPredicted uint64 // prefetch predictions issued
	PredHits      uint64 // predictions later confirmed by an access
	LeaseEpoch    uint64 // current lease epoch (0 = none observed yet)
	Groups        []ObsGroup
}

// tenantObsU64s is the fixed per-row section: the TenantObs uint64 fields
// in declaration order.
const tenantObsU64s = 15

// MsgObs request body: u32 k, u8 flags (must be 0).
func appendObsReq(dst []byte, k int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	return append(dst, 0)
}

func decodeObsReq(b []byte) (int, error) {
	if len(b) != 5 {
		return 0, fmt.Errorf("rpc: obs body is %d bytes, want 5", len(b))
	}
	if b[4] != 0 {
		return 0, fmt.Errorf("rpc: obs request: unknown flag bits %#x", b[4])
	}
	return int(int32(binary.LittleEndian.Uint32(b[:4]))), nil
}

// MsgObs response body: u32 tenantCount, then per tenant u8 nameLen, name,
// 15 u64 fields (declaration order), u32 groupCount, and per group
// u32 seed, u64 strength bits, u32 fileCount, u32 files.
func appendTenantObs(dst []byte, rows []TenantObs) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(rows)))
	for i := range rows {
		r := &rows[i]
		dst = append(dst, byte(len(r.Name)))
		dst = append(dst, r.Name...)
		for _, v := range [tenantObsU64s]uint64{
			r.Fed, r.MemoryBytes, r.TapDepth, r.TapDropped,
			r.FeedRecords, r.FeedFrames, r.ReplLagMax, r.Followers,
			r.CkptAgeMS, r.CkptEpoch, r.CkptFull, r.CkptDelta,
			r.PredPredicted, r.PredHits, r.LeaseEpoch,
		} {
			dst = le.AppendUint64(dst, v)
		}
		dst = le.AppendUint32(dst, uint32(len(r.Groups)))
		for _, g := range r.Groups {
			dst = le.AppendUint32(dst, uint32(g.Seed))
			dst = le.AppendUint64(dst, f64bits(g.Strength))
			dst = appendFileIDs(dst, g.Files)
		}
	}
	return dst
}

func decodeTenantObs(b []byte) ([]TenantObs, error) {
	n, b, err := consumeCount(b, 1+tenantObsU64s*8+4)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	rows := make([]TenantObs, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("rpc: obs row %d truncated", i)
		}
		nl := int(b[0])
		b = b[1:]
		if len(b) < nl+tenantObsU64s*8+4 {
			return nil, fmt.Errorf("rpc: obs row %d truncated", i)
		}
		var r TenantObs
		r.Name = string(b[:nl])
		b = b[nl:]
		for _, p := range [tenantObsU64s]*uint64{
			&r.Fed, &r.MemoryBytes, &r.TapDepth, &r.TapDropped,
			&r.FeedRecords, &r.FeedFrames, &r.ReplLagMax, &r.Followers,
			&r.CkptAgeMS, &r.CkptEpoch, &r.CkptFull, &r.CkptDelta,
			&r.PredPredicted, &r.PredHits, &r.LeaseEpoch,
		} {
			*p = le.Uint64(b[:8])
			b = b[8:]
		}
		var gn int
		if gn, b, err = consumeCount(b, 4+8+4); err != nil {
			return nil, fmt.Errorf("rpc: obs row %d groups: %w", i, err)
		}
		if gn > 0 {
			r.Groups = make([]ObsGroup, 0, gn)
		}
		for j := 0; j < gn; j++ {
			if len(b) < 4+8+4 {
				return nil, fmt.Errorf("rpc: obs row %d group %d truncated", i, j)
			}
			var g ObsGroup
			g.Seed = trace.FileID(le.Uint32(b[:4]))
			g.Strength = f64from(le.Uint64(b[4:12]))
			b = b[12:]
			var fn int
			if fn, b, err = consumeCount(b, 4); err != nil {
				return nil, fmt.Errorf("rpc: obs row %d group %d: %w", i, j, err)
			}
			if fn > 0 {
				g.Files = make([]trace.FileID, fn)
				for k := range g.Files {
					g.Files[k] = trace.FileID(le.Uint32(b[:4]))
					b = b[4:]
				}
			}
			r.Groups = append(r.Groups, g)
		}
		rows = append(rows, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rpc: %d trailing bytes after obs rows", len(b))
	}
	return rows, nil
}

// ------------------------------------------------------- frame buffer pool

// framePool recycles encode buffers on the hot feed path: every request a
// Client starts and every body scratch FeedBatch builds comes from here and
// goes back once the bytes are on the wire, so a steady feed stream stops
// allocating per frame (ROADMAP item 2). Measured on
// BenchmarkLoopbackFeedBatch: 1995 -> 1544 B/op (-23%); ns/op unchanged
// within noise on a single core, where GC pressure is not the bottleneck.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

// maxPooledFrame bounds what returns to the pool: a one-off huge frame (a
// catch-up snapshot chunk) must not pin megabytes inside it forever.
const maxPooledFrame = 1 << 20

func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrameBuf(fb *frameBuf) {
	if fb == nil || cap(fb.b) > maxPooledFrame {
		return
	}
	fb.b = fb.b[:0]
	framePool.Put(fb)
}

// Predict request body.
func appendPredictReq(dst []byte, f trace.FileID, k int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
	return binary.LittleEndian.AppendUint32(dst, uint32(k))
}

func decodePredictReq(b []byte) (trace.FileID, int, error) {
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("rpc: predict body is %d bytes, want 8", len(b))
	}
	le := binary.LittleEndian
	return trace.FileID(le.Uint32(b[:4])), int(int32(le.Uint32(b[4:8]))), nil
}
