// Package rpc puts the FARMER miner on the wire: a length-prefixed binary
// framing (reusing internal/trace's record codec), a pipelined client with
// per-connection write batching, and a graceful-drain server.
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
// connection is a FIFO channel — the property the replication stream's
// ordering rests on. The tenant field namespaces every request: one farmerd
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

	"farmer/internal/bin"
	"farmer/internal/core"
	"farmer/internal/lease"
	"farmer/internal/trace"
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
//	MsgPromote     (empty)                      → MsgOK (empty)
//	MsgCatchup     catch-up cut                 → MsgOK (empty)
//	MsgReplicate   u64 pos, u8 kind 0, records  → MsgOK (empty)
const (
	MsgPing MsgType = iota + 1
	MsgFeed
	MsgFeedBatch
	MsgPredict
	MsgList
	MsgStats
	MsgSave
	MsgLoad
	_ // 9 carried mining events between processes until PR 24: retired, never reused

	// Replication frames (see replicate.go and DESIGN.md "Replication &
	// failover"). MsgCatchup bootstraps a follower from the primary's
	// checkpoint cut; snapshots larger than one frame arrive as 0+
	// MsgCatchupChunk frames (raw snapshot bytes, accumulated per
	// connection) followed by the MsgCatchup carrying the final piece.
	// MsgReplicate streams the acked record feed (kind 0, the
	// trace.AppendRecord codec; kind 1 carried replica-group commands and
	// is retired, never reused); MsgPromote asks a follower to start
	// accepting writes — refused while its primary's replication link is
	// live (the split-brain guard).
	MsgPromote
	MsgCatchup
	MsgReplicate
	_ // 13 carried replica-group commands and reads: retired, never reused
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
// latency table: the name in the type's msgRows row.
func (t MsgType) String() string {
	if int(t) < len(msgRows) && msgRows[t].name != "" {
		return msgRows[t].name
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
	c := bin.Read("rpc: error frame", body)
	e := &WireError{Code: Code(c.U16())}
	e.Msg = c.Str(int(c.U32()))
	if err := c.Done(); err != nil {
		return err
	}
	return e
}

// ------------------------------------------------------------ body codecs
//
// Every decoder below is a bin.Cursor reading the fields in the order the
// matching append wrote them, ending in Done (first error, or trailing
// bytes). Values shared with the on-disk store — Correlator lists, semantic
// vectors, FileID lists — have their one encoding beside their type
// (core.AppendCorrelators, vsm.AppendVector, trace.AppendFileIDs).

// appendRecords encodes a batch body: count + trace records.
func appendRecords(dst []byte, recs []trace.Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		dst = trace.AppendRecord(dst, &recs[i])
	}
	return dst
}

// readRecords reads an appendRecords run, into buf when that is large enough
// (every element is overwritten) and a fresh slice otherwise; each record is
// bounds-checked by trace.ConsumeRecord, the codec it shares with trace files.
func readRecords(c *bin.Cursor, buf []trace.Record) []trace.Record {
	n := c.Count(trace.RecordFixedLen)
	if n > cap(buf) {
		buf = make([]trace.Record, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = bin.Via(c, trace.ConsumeRecord)
	}
	return buf
}

// Predict request body: u32 file, u32 k.
func appendPredictReq(dst []byte, f trace.FileID, k int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
	return binary.LittleEndian.AppendUint32(dst, uint32(k))
}

func decodePredictReq(b []byte) (trace.FileID, int, error) {
	c := bin.Read("rpc: predict request", b)
	f, k := trace.FileID(c.U32()), int(int32(c.U32()))
	return f, k, c.Done()
}

// Predict response body: a FileID list.
func decodePredictResp(b []byte) ([]trace.FileID, error) {
	c := bin.Read("rpc: predict response", b)
	files := trace.ReadFileIDs(&c)
	return files, c.Done()
}

// List request body: u32 file. Response body: a Correlator list, degrees as
// exact bit patterns — which the cross-process fingerprint tests rely on.
func decodeListReq(b []byte) (trace.FileID, error) {
	c := bin.Read("rpc: list request", b)
	f := trace.FileID(c.U32())
	return f, c.Done()
}

func decodeListResp(b []byte) ([]core.Correlator, error) {
	c := bin.Read("rpc: list response", b)
	list := core.ReadCorrelators(&c)
	return list, c.Done()
}

// Stats body: seven u64 fields in declaration order (Fed, TrackedFiles,
// Lists, Correlators, GraphNodes, GraphEdges, MemoryBytes).
const statsLen = 7 * 8

func appendStats(dst []byte, st core.Stats) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, st.Fed)
	for _, v := range [...]int{st.TrackedFiles, st.Lists, st.Correlators, st.GraphNodes, st.GraphEdges} {
		dst = le.AppendUint64(dst, uint64(v))
	}
	return le.AppendUint64(dst, uint64(st.MemoryBytes))
}

func consumeStats(b []byte) (core.Stats, error) {
	c := bin.Read("rpc: stats", b)
	st := readStats(&c)
	return st, c.Done()
}

func readStats(c *bin.Cursor) core.Stats {
	return core.Stats{
		Fed:          c.U64(),
		TrackedFiles: int(c.U64()),
		Lists:        int(c.U64()),
		Correlators:  int(c.U64()),
		GraphNodes:   int(c.U64()),
		GraphEdges:   int(c.U64()),
		MemoryBytes:  int64(c.U64()),
	}
}

// ------------------------------------------------------- replication bodies

// CatchupCut is one checkpoint cut of a primary's complete mined state: the
// stream position (records ingested — the cut's WAL position), the state
// fingerprint the follower verifies BEFORE installing, the dense FileID
// bound the fingerprint hashes over, and the snapshot: kvstore put frames,
// each key once in no particular order (what core.ShardedModel.Cut stages),
// holding lists, vectors, graph and lookahead window.
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
	c := bin.Read("rpc: catchup", b)
	cut := CatchupCut{Pos: c.U64(), Fingerprint: c.U64(), FileCount: int(c.U32()), Snapshot: c.Rest()}
	return cut, c.Done()
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
	c := bin.Read("rpc: catchup delta", b)
	d := CatchupDelta{
		FromPos:     c.U64(),
		Fingerprint: c.U64(),
		FileCount:   int(c.U32()),
		Final:       c.Flags(1) != 0,
		Records:     readRecords(&c, nil),
	}
	return d, c.Done()
}

// replKindRecords is the one MsgReplicate kind: u32 count +
// trace.AppendRecord records. Kind 1 is retired, never reused.
const replKindRecords byte = 0

// MsgReplicate body: u64 pos, u8 kind, payload. pos is the stream position
// BEFORE the payload applies; a follower refuses a position that does not
// equal its own record count, so a gap or reorder can never silently
// corrupt the replica.
func appendReplicateRecords(dst []byte, pos uint64, recs []trace.Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, pos)
	dst = append(dst, replKindRecords)
	return appendRecords(dst, recs)
}

func decodeReplicate(b []byte) (pos uint64, kind byte, payload []byte, err error) {
	c := bin.Read("rpc: replicate", b)
	pos, kind, payload = c.U64(), c.U8(), c.Rest()
	return pos, kind, payload, c.Done()
}

// ------------------------------------------------------- tenancy bodies

// MsgHello request body: u32 tokenLen, token bytes.
func appendHello(dst []byte, token string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(token)))
	return append(dst, token...)
}

func decodeHello(b []byte) (token string, err error) {
	c := bin.Read("rpc: hello", b)
	token = c.Str(int(c.U32()))
	return token, c.Done()
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
	c := bin.Read("rpc: tenants", b)
	infos := make([]TenantInfo, c.Count(1+statsLen))
	for i := range infos {
		infos[i] = TenantInfo{Name: c.Str(int(c.U8())), Stats: readStats(&c)}
	}
	return infos, c.Done()
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
	c := bin.Read("rpc: lease info", b)
	info := LeaseInfo{Epoch: c.U64(), TTLMS: c.U64()}
	flags := c.Flags(leaseFlagSelf | leaseFlagTransfer)
	info.Self, info.Transfer = flags&leaseFlagSelf != 0, flags&leaseFlagTransfer != 0
	info.Leader = c.Str(int(c.U8()))
	return info, c.Done()
}

// MsgLeaseRequest body: u64 epoch (0 = status query), u8 candLen, candidate.
func appendLeaseReq(dst []byte, epoch uint64, candidate string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = append(dst, byte(len(candidate)))
	return append(dst, candidate...)
}

func decodeLeaseReq(b []byte) (epoch uint64, candidate string, err error) {
	c := bin.Read("rpc: lease request", b)
	epoch = c.U64()
	candidate = c.Str(int(c.U8()))
	return epoch, candidate, c.Done()
}

// MsgHandoff body: u16 addrLen, target address.
func appendHandoffReq(dst []byte, target string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(target)))
	return append(dst, target...)
}

func decodeHandoffReq(b []byte) (string, error) {
	c := bin.Read("rpc: handoff", b)
	target := c.Str(int(c.U16()))
	if target == "" {
		c.Failf("target is empty")
	}
	return target, c.Done()
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
	c := bin.Read("rpc: wire stats", b)
	out := make([]WireStat, c.Count(1+8+8))
	for i := range out {
		out[i] = WireStat{Type: MsgType(c.U8()), Count: c.U64(), SumNS: c.U64()}
	}
	return out, c.Done()
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
	TapDepth      uint64 // ingested records queued for the prefetch pipeline right now
	TapDropped    uint64 // ingested records the full prefetch queue dropped unpredicted
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

// u64s lists the row's fixed section: the uint64 fields in declaration
// (= wire) order, for the encoder to read and the decoder to fill.
func (r *TenantObs) u64s() [15]*uint64 {
	return [...]*uint64{
		&r.Fed, &r.MemoryBytes, &r.TapDepth, &r.TapDropped,
		&r.FeedRecords, &r.FeedFrames, &r.ReplLagMax, &r.Followers,
		&r.CkptAgeMS, &r.CkptEpoch, &r.CkptFull, &r.CkptDelta,
		&r.PredPredicted, &r.PredHits, &r.LeaseEpoch,
	}
}

// MsgObs request body: u32 k, u8 flags (must be 0).
func appendObsReq(dst []byte, k int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	return append(dst, 0)
}

func decodeObsReq(b []byte) (int, error) {
	c := bin.Read("rpc: obs request", b)
	k := int(int32(c.U32()))
	c.Flags(0)
	return k, c.Done()
}

// MsgObs response body: u32 tenantCount, then per tenant u8 nameLen, name,
// 15 u64 fields (declaration order), u32 groupCount, and per group
// u32 seed, u64 strength bits, a FileID list.
func appendTenantObs(dst []byte, rows []TenantObs) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(rows)))
	for i := range rows {
		r := &rows[i]
		dst = append(dst, byte(len(r.Name)))
		dst = append(dst, r.Name...)
		for _, p := range r.u64s() {
			dst = le.AppendUint64(dst, *p)
		}
		dst = le.AppendUint32(dst, uint32(len(r.Groups)))
		for _, g := range r.Groups {
			dst = le.AppendUint32(dst, uint32(g.Seed))
			dst = le.AppendUint64(dst, math.Float64bits(g.Strength))
			dst = trace.AppendFileIDs(dst, g.Files)
		}
	}
	return dst
}

func decodeTenantObs(b []byte) ([]TenantObs, error) {
	c := bin.Read("rpc: obs rows", b)
	rows := make([]TenantObs, c.Count(1+15*8+4))
	for i := range rows {
		r := &rows[i]
		r.Name = c.Str(int(c.U8()))
		for _, p := range r.u64s() {
			*p = c.U64()
		}
		if n := c.Count(4 + 8 + 4); n > 0 {
			r.Groups = make([]ObsGroup, n)
		}
		for j := range r.Groups {
			r.Groups[j] = ObsGroup{Seed: trace.FileID(c.U32()), Strength: c.F64(), Files: trace.ReadFileIDs(&c)}
		}
	}
	return rows, c.Done()
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
