package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// msgNames are the String() values as they stood before the table existed,
// as literals: they are metric labels (farmer_rpc_latency_ns{msg}) and
// `farmerctl top` columns, so a renamed row is a broken dashboard.
var msgNames = map[MsgType]string{
	MsgPing: "ping", MsgFeed: "feed", MsgFeedBatch: "feed_batch", MsgPredict: "predict", MsgList: "list",
	MsgStats: "stats", MsgSave: "save", MsgLoad: "load", MsgPromote: "promote",
	MsgCatchup: "catchup", MsgReplicate: "replicate", MsgCatchupChunk: "catchup_chunk",
	MsgHello: "hello", MsgTenants: "tenants", MsgCatchupDelta: "catchup_delta", MsgObs: "obs",
	MsgLeaseRequest: "lease_request", MsgLeaseGrant: "lease_grant", MsgHandoff: "handoff",
	MsgWireStats: "wire_stats", MsgOK: "ok", MsgErr: "err",
}

// TestMsgTypeValues pins the number every message type goes by on the wire.
// Slots 9 and 13 are retired (9 carried mining events between processes
// until PR 24, 13 replica-group commands and reads), not free: a type that
// took one, or a renumbering of the types after it, would make one build's
// frames mean something else to another under the same ProtocolVersion.
func TestMsgTypeValues(t *testing.T) {
	values := map[MsgType]uint8{
		MsgPing: 1, MsgFeed: 2, MsgFeedBatch: 3, MsgPredict: 4, MsgList: 5, MsgStats: 6, MsgSave: 7, MsgLoad: 8,
		MsgPromote: 10, MsgCatchup: 11, MsgReplicate: 12, MsgCatchupChunk: 14,
		MsgHello: 15, MsgTenants: 16, MsgCatchupDelta: 17, MsgObs: 18,
		MsgLeaseRequest: 19, MsgLeaseGrant: 20, MsgHandoff: 21, MsgWireStats: 22,
		MsgOK: 0x40, MsgErr: 0x41,
	}
	for typ, want := range values {
		if uint8(typ) != want {
			t.Errorf("%v is %d on the wire, want %d", typ, uint8(typ), want)
		}
	}
	if len(values) != len(msgNames) {
		t.Errorf("%d values pinned for %d named types", len(values), len(msgNames))
	}
	for _, slot := range []MsgType{9, 13} {
		if row := msgRows[slot]; row.handle != nil || row.name != "" {
			t.Errorf("the retired slot %d has a row again: %q", slot, row.name)
		}
	}
	if ProtocolVersion != 2 {
		t.Errorf("ProtocolVersion = %d, want 2", ProtocolVersion)
	}
}

// rowBodies is one body per request type that its row decodes.
func rowBodies() map[MsgType][]byte {
	rec := trace.Record{Seq: 1, File: 7, Path: "/a/b"}
	return map[MsgType][]byte{
		MsgPing:         nil,
		MsgFeed:         trace.AppendRecord(nil, &rec),
		MsgFeedBatch:    appendRecords(nil, []trace.Record{rec}),
		MsgPredict:      appendPredictReq(nil, 7, 4),
		MsgList:         {7, 0, 0, 0},
		MsgStats:        nil,
		MsgSave:         nil,
		MsgLoad:         nil,
		MsgPromote:      nil,
		MsgCatchup:      appendCatchup(nil, &CatchupCut{Pos: 1, Snapshot: []byte("snap")}),
		MsgReplicate:    appendReplicateRecords(nil, 0, []trace.Record{rec}),
		MsgCatchupChunk: []byte("piece"),
		MsgHello:        appendHello(nil, ""),
		MsgTenants:      nil,
		MsgCatchupDelta: appendCatchupDelta(nil, &CatchupDelta{Final: true}),
		MsgObs:          appendObsReq(nil, 3),
		MsgLeaseRequest: appendLeaseReq(nil, 0, ""),
		MsgLeaseGrant:   appendLeaseInfo(nil, &LeaseInfo{Epoch: 2, Leader: "a:1"}),
		MsgHandoff:      appendHandoffReq(nil, "b:1"),
		MsgWireStats:    nil,
	}
}

// everySurface is a backend with every optional surface, so a request gets
// past the surface gate to its decoder whatever its row asks for.
type everySurface struct {
	*replicaRecorder
	leaseTestBackend
}

func newEverySurface() *everySurface {
	mb := newMinerBackend(1)
	return &everySurface{&replicaRecorder{minerBackend: mb}, leaseTestBackend{minerBackend: mb}}
}

func (b *everySurface) Feed(r *trace.Record) error                      { return b.replicaRecorder.Feed(r) }
func (b *everySurface) FeedBatch(recs []trace.Record) error             { return b.replicaRecorder.FeedBatch(recs) }
func (b *everySurface) Predict(f trace.FileID, k int) []trace.FileID    { return nil }
func (b *everySurface) CorrelatorList(f trace.FileID) []core.Correlator { return nil }
func (b *everySurface) Stats() core.Stats                               { return core.Stats{} }
func (b *everySurface) Save() error                                     { return nil }
func (b *everySurface) Load() error                                     { return nil }

// answer runs one frame through a server's handle on connection state cs
// and returns the response's wire code (0 for MsgOK).
func answer(t *testing.T, s *Server, cs *connState, typ MsgType, body []byte) Code {
	t.Helper()
	out := s.handle(nil, cs, &Frame{Type: typ, ID: 9, Body: body})
	f, err := ReadFrame(bufio.NewReader(bytes.NewReader(out)))
	if err != nil || f.ID != 9 {
		t.Fatalf("%v: response frame %+v, %v", typ, f, err)
	}
	if f.Type == MsgOK {
		return 0
	}
	var we *WireError
	if !errors.As(decodeWireError(f.Body), &we) {
		t.Fatalf("%v: response is neither MsgOK nor a wire error", typ)
	}
	return we.Code
}

// TestMsgRows ranges over the dispatch table itself: what every row must
// have, and how the gates in front of and inside it answer.
func TestMsgRows(t *testing.T) {
	bodies := rowBodies()
	plain, full := NewServer(newMinerBackend(1)), NewServer(newEverySurface())
	conn := func() *connState { return &connState{id: 1, authed: true} }

	for typ := MsgType(0); typ < MsgOK; typ++ {
		row := msgRows[typ]
		want, known := msgNames[typ]
		if !known {
			// Not a request type: no row, a numbered name, CodeUnsupported.
			if row.handle != nil || row.name != "" {
				t.Errorf("type %d has a row (%q) and no constant", typ, row.name)
			}
			if got := answer(t, full, conn(), typ, nil); got != CodeUnsupported {
				t.Errorf("unknown type %d answered code %d, want CodeUnsupported", typ, got)
			}
			continue
		}
		if row.handle == nil || row.name != want {
			t.Errorf("%s: row named %q, handler set: %v", want, row.name, row.handle != nil)
			continue
		}
		body, ok := bodies[typ]
		if !ok {
			t.Errorf("%s: the test has no body for it", want)
			continue
		}

		// A plain Backend has none of the optional surfaces.
		optional := row.surface == surfaceReplica || row.surface == surfaceLease || row.surface == surfaceHandoff
		if got := answer(t, plain, conn(), typ, body); optional != (got == CodeUnsupported) {
			t.Errorf("%s against a plain Backend answered code %d (optional surface: %v)", want, got, optional)
		}

		// With the surface there, the body decodes — and touching a replica
		// row, and only a replica row, registers the connection for ConnClosed.
		cs := conn()
		if got := answer(t, full, cs, typ, body); got == CodeBadRequest || got == CodeUnsupported {
			t.Errorf("%s refused its own body with code %d", want, got)
		}
		if pinned := len(cs.replicas) == 1; pinned != (row.surface == surfaceReplica) {
			t.Errorf("%s (surface %d) left the connection registered for ConnClosed: %v", want, row.surface, pinned)
		}

		// One trailing byte is a bad request. Three rows take any body: a ping
		// ignores it (TestOversizeBoundary sends a MaxFrame one), and a
		// catch-up snapshot and its chunks are opaque bytes to this layer.
		exact := typ != MsgPing && typ != MsgCatchup && typ != MsgCatchupChunk
		got := answer(t, full, conn(), typ, append(body[:len(body):len(body)], 0))
		if exact != (got == CodeBadRequest) {
			t.Errorf("%s answered its body plus one byte with code %d (exact: %v)", want, got, exact)
		}
	}
	for typ, want := range msgNames {
		if got := typ.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", typ, got, want)
		}
	}
	if len(msgNames) != 22 || MsgType(13).String() != "msg_13" || MsgType(23).String() != "msg_23" || MsgType(200).String() != "msg_200" {
		t.Errorf("%d names; 13 → %q, 23 → %q, 200 → %q", len(msgNames), MsgType(13), MsgType(23), MsgType(200))
	}
}

// frameSink is a peer that acks every frame with an empty body and records
// its type and body size.
type frameSink struct {
	lis net.Listener

	mu     sync.Mutex
	bodies map[MsgType][]int
}

func newFrameSink(t *testing.T) *frameSink {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &frameSink{lis: lis, bodies: make(map[MsgType][]int)}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go k.serve(conn)
		}
	}()
	return k
}

func (k *frameSink) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return
		}
		k.mu.Lock()
		k.bodies[f.Type] = append(k.bodies[f.Type], len(f.Body))
		k.mu.Unlock()
		if _, err := conn.Write(AppendFrame(nil, MsgOK, f.ID, nil)); err != nil {
			return
		}
	}
}

func (k *frameSink) sizes(typ MsgType) []int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]int(nil), k.bodies[typ]...)
}

// TestRecordChunksHoldTheLimit: a split FeedBatch is cut by chunkRecords at
// the encoded size of a record. (A record used to be sized at 24 bytes +
// path against the 49 it encodes to, so path-less chunks came out twice the
// limit.)
func TestRecordChunksHoldTheLimit(t *testing.T) {
	const limit = 1024
	defer func(old int) { maxBatchBody = old }(maxBatchBody)
	maxBatchBody = limit

	recs := make([]trace.Record, 500) // path-less: RecordFixedLen bytes each
	for i := range recs {
		recs[i] = trace.Record{Seq: uint64(i), File: trace.FileID(i % 17)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sink := newFrameSink(t)
	c, err := Dial(ctx, sink.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FeedBatch(ctx, recs); err != nil {
		t.Fatal(err)
	}
	sizes, carried := sink.sizes(MsgFeedBatch), 0
	for _, n := range sizes {
		if n > limit+trace.RecordFixedLen {
			t.Errorf("MsgFeedBatch body of %d bytes, limit %d + one record", n, limit)
		}
		carried += (n - 4) / trace.RecordFixedLen
	}
	if want := len(recs) * trace.RecordFixedLen / limit; len(sizes) < want || carried != len(recs) {
		t.Errorf("%d frames carried %d records, want all %d in at least %d", len(sizes), carried, len(recs), want)
	}
}
