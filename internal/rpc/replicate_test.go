package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"farmer/internal/trace"
)

// TestClientDisconnectedTyped: a connection that dies underneath the client
// fails the in-flight call AND every later call with an error matching
// ErrDisconnected — the typed contract farmer.Dial's reconnect consumes.
// (The old client surfaced an untyped sticky error, so callers had no way
// to distinguish "redial me" from an application failure.)
func TestClientDisconnectedTyped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := Dial(context.Background(), lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srvConn := <-accepted
	srvConn.Close() // the "transient" fault: peer drops the connection

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := trace.Record{File: 1, Path: "/x"}
	if err := client.Feed(ctx, &r); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("in-flight call failed with %v, want ErrDisconnected", err)
	}
	// Sticky and typed on every later call: the client does not pretend to
	// recover (reconnection is the owner's job — it has the address list).
	if _, err := client.Stats(ctx); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("later call failed with %v, want ErrDisconnected", err)
	}
}

// notPrimaryBackend refuses writes like an un-promoted follower.
type notPrimaryBackend struct{ *minerBackend }

func (b notPrimaryBackend) Feed(r *trace.Record) error {
	return fmt.Errorf("%w: test follower", ErrNotPrimary)
}

// TestNotPrimaryTravelsTyped: a backend refusal wrapping ErrNotPrimary
// reaches the client as a *WireError that still matches
// errors.Is(err, ErrNotPrimary), and the connection survives it.
func TestNotPrimaryTravelsTyped(t *testing.T) {
	addr, _, stop := startServer(t, notPrimaryBackend{newMinerBackend(1)})
	defer stop()
	client := dialT(t, addr)
	defer client.Close()
	ctx := context.Background()
	r := trace.Record{File: 1, Path: "/x"}
	err := client.Feed(ctx, &r)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("refusal arrived as %v, want ErrNotPrimary", err)
	}
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeNotPrimary {
		t.Fatalf("refusal not a CodeNotPrimary wire error: %v", err)
	}
	if _, err := client.Ping(ctx); err != nil {
		t.Fatalf("connection dead after a typed refusal: %v", err)
	}
}

// TestReplicaFramesUnsupported: a server whose backend has no replication
// surface answers the replication frames with CodeUnsupported instead of
// dropping the connection.
func TestReplicaFramesUnsupported(t *testing.T) {
	addr, _, stop := startServer(t, newMinerBackend(1))
	defer stop()
	client := dialT(t, addr)
	defer client.Close()
	ctx := context.Background()
	var we *WireError
	if err := client.Promote(ctx); !errors.As(err, &we) || we.Code != CodeUnsupported {
		t.Fatalf("Promote on a plain backend: %v", err)
	}
	if _, err := client.Ping(ctx); err != nil {
		t.Fatalf("connection dead after unsupported frames: %v", err)
	}
}

// replicaRecorder records the replication stream a primary's Replicator
// ships — the follower side as a bare ReplicaBackend.
type replicaRecorder struct {
	*minerBackend
	mu      sync.Mutex
	catchup []CatchupCut
	batches [][]trace.Record
	poss    []uint64
	src     uint64
}

func (b *replicaRecorder) Promote() error { return nil }
func (b *replicaRecorder) Catchup(conn uint64, cut CatchupCut) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.catchup = append(b.catchup, cut)
	b.src = conn
	return nil
}
func (b *replicaRecorder) CatchupDelta(conn uint64, d CatchupDelta) error {
	return fmt.Errorf("no resumable position")
}
func (b *replicaRecorder) Replicate(conn uint64, pos uint64, recs []trace.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if conn != b.src {
		return fmt.Errorf("replicate from conn %d, caught up on %d", conn, b.src)
	}
	b.poss = append(b.poss, pos)
	b.batches = append(b.batches, recs)
	return nil
}
func (b *replicaRecorder) ConnClosed(conn uint64) {}

// noFingerprint is the state fingerprint of a primary whose resume offers
// these tests' followers never take.
func noFingerprint() (uint64, int) { return 0, 0 }

// fedCounter stands in for a primary miner's record count where a test's
// mine feeds nothing: mine(n) advances it as mining n records would.
type fedCounter struct{ n atomic.Uint64 }

func (c *fedCounter) fed() uint64 { return c.n.Load() }

func (c *fedCounter) mine(n int) func() error {
	return func() error { c.n.Add(uint64(n)); return nil }
}

// TestReplicatorStreamOrdering: the Replicator ships catch-up first, then
// every batch at a strictly contiguous position, whatever the interleaving
// of Ingest calls.
func TestReplicatorStreamOrdering(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()

	const startPos = 7
	var miner fedCounter
	miner.n.Store(startPos)
	r := NewReplicator(miner.fed, time.Minute, DialOptions{}, noFingerprint, nil)
	defer r.Close()
	cut := CatchupCut{Pos: startPos, FileCount: 1, Snapshot: []byte("snap")}
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) { return cut, nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pos := uint64(startPos)
	for i := 0; i < 20; i++ {
		n := 1 + i%3
		recs := make([]trace.Record, n)
		for j := range recs {
			recs[j] = trace.Record{File: trace.FileID(i), Path: "/p"}
		}
		if err := r.Ingest(ctx, recs, miner.mine(n)); err != nil {
			t.Fatal(err)
		}
		pos += uint64(n)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.catchup) != 1 || rec.catchup[0].Pos != startPos || string(rec.catchup[0].Snapshot) != "snap" {
		t.Fatalf("catch-up not delivered intact: %+v", rec.catchup)
	}
	want := uint64(startPos)
	for i, p := range rec.poss {
		if p != want {
			t.Fatalf("batch %d at position %d, want %d (gap or reorder)", i, p, want)
		}
		want += uint64(len(rec.batches[i]))
	}
	if want != pos {
		t.Fatalf("stream ends at %d, want %d", want, pos)
	}
}

// resumeRefuser records the resume offers it refuses.
type resumeRefuser struct {
	*replicaRecorder
	offers []CatchupDelta
}

func (b *resumeRefuser) CatchupDelta(conn uint64, d CatchupDelta) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.offers = append(b.offers, d)
	return errors.New("state does not match the fingerprint")
}

// TestReplicatorResumeRefusedFallsBackToFullCut: a follower at the
// primary's position is offered a resume — one final frame, no records —
// and when it refuses, the attach ships the full cut on a fresh connection
// and the follower is on the stream.
func TestReplicatorResumeRefusedFallsBackToFullCut(t *testing.T) {
	rec := &resumeRefuser{replicaRecorder: &replicaRecorder{minerBackend: newMinerBackend(1)}}
	rec.sm.FeedBatch([]trace.Record{{File: 1, Path: "/p"}, {File: 2, Path: "/p"}})
	addr, _, stop := startServer(t, rec)
	defer stop()

	r := NewReplicator(rec.sm.Fed, time.Minute, DialOptions{}, func() (uint64, int) { return 0xfeed, 3 }, nil)
	defer r.Close()
	cut := CatchupCut{Pos: 2, FileCount: 1, Snapshot: []byte("snap")}
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) { return cut, nil }); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := CatchupDelta{FromPos: 2, Fingerprint: 0xfeed, FileCount: 3, Final: true}
	if len(rec.offers) != 1 || len(rec.offers[0].Records) != 0 || rec.offers[0].FromPos != want.FromPos ||
		rec.offers[0].Fingerprint != want.Fingerprint || rec.offers[0].FileCount != want.FileCount || !rec.offers[0].Final {
		t.Fatalf("resume offers %+v, want one %+v", rec.offers, want)
	}
	if len(rec.catchup) != 1 || len(r.Followers()) != 1 {
		t.Fatalf("%d catch-ups delivered, followers %v: want the full cut and the follower attached", len(rec.catchup), r.Followers())
	}
}

// TestReplicatorDetachesDeadFollower: a follower that dies mid-stream is
// dropped (reported via the lost callback) and the primary keeps ingesting.
func TestReplicatorDetachesDeadFollower(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, srv, _ := startServer(t, rec)

	lost := make(chan string, 1)
	var miner fedCounter
	r := NewReplicator(miner.fed, time.Minute, DialOptions{}, noFingerprint, func(addr string, err error) { lost <- addr })
	defer r.Close()
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) {
		return CatchupCut{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.Followers(); len(got) != 1 {
		t.Fatalf("followers = %v", got)
	}

	// Kill the follower server abruptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)

	recs := []trace.Record{{File: 1, Path: "/x"}}
	deadline := time.Now().Add(10 * time.Second)
	for len(r.Followers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead follower never detached")
		}
		if err := r.Ingest(context.Background(), recs, miner.mine(len(recs))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-lost:
		if a != addr {
			t.Fatalf("lost %q, want %q", a, addr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lost callback never fired")
	}
}

// TestGroupsAndLoadOverTheWire covers the remaining request surface against
// a replica-capable backend — MsgLoad, MsgPromote and the MsgErr formatting
// — and the retired MsgType 13, which carried replica-group commands: it is
// answered as a type the server does not know, and the connection keeps
// serving.
func TestGroupsAndLoadOverTheWire(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()
	client := dialT(t, addr)
	defer client.Close()
	ctx := context.Background()

	var we *WireError
	_, err := client.call(ctx, MsgType(13), unhex(t, retiredGroupsReqHex))
	if !errors.As(err, &we) || we.Code != CodeUnsupported || !strings.Contains(we.Msg, "unknown request type 13") {
		t.Fatalf("a type-13 frame answered %v, want CodeUnsupported: unknown request type 13", err)
	}
	if err := client.Load(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ping(ctx); err != nil {
		t.Fatalf("connection dead after the retired type: %v", err)
	}

	we = &WireError{Code: CodeInternal, Msg: "hello"}
	if s := we.Error(); !strings.Contains(s, "hello") {
		t.Fatalf("WireError.Error() = %q", s)
	}
}

// TestGroupsReqCodec: a MsgReplicate carrying the retired kind 1 (a
// replica-group command, here in the bytes its last sender wrote) is refused
// as a bad request before the follower sees it — its position does not
// move — while a kind-0 frame at the same position is taken.
func TestGroupsReqCodec(t *testing.T) {
	kind1 := unhex(t, retiredReplicateGroupsHex)
	if _, err := decodeReplicateReq(kind1); err == nil {
		t.Fatal("the kind-1 replicate body decoded")
	}
	rec := &replicaRecorder{minerBackend: newMinerBackend(1), src: 1}
	s, cs := NewServer(rec), &connState{id: 1, authed: true}
	fed := rec.sm.Fed()
	if code := answer(t, s, cs, MsgReplicate, kind1); code != CodeBadRequest {
		t.Fatalf("kind-1 replicate answered code %d, want CodeBadRequest", code)
	}
	if len(rec.poss) != 0 || rec.sm.Fed() != fed {
		t.Fatalf("the refused frame reached the follower: positions %v, fed %d → %d", rec.poss, fed, rec.sm.Fed())
	}
	if code := answer(t, s, cs, MsgReplicate, appendReplicateRecords(nil, 41, goldenRecs[1:])); code != 0 || len(rec.poss) != 1 {
		t.Fatalf("kind-0 replicate at the same position answered code %d, positions %v", code, rec.poss)
	}
}

// TestCatchupChunked: a snapshot larger than one catch-up frame ships as
// MsgCatchupChunk frames plus the final MsgCatchup, and the follower
// reassembles it byte-exact — the path a >MaxFrame model takes.
func TestCatchupChunked(t *testing.T) {
	old := maxCatchupChunk
	maxCatchupChunk = 1024 // force the chunked path on a small snapshot
	defer func() { maxCatchupChunk = old }()

	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()

	snap := make([]byte, 10*1024+37) // not a multiple of the chunk size
	for i := range snap {
		snap[i] = byte(i * 31)
	}
	r := NewReplicator(func() uint64 { return 5 }, time.Minute, DialOptions{}, noFingerprint, nil)
	defer r.Close()
	cut := CatchupCut{Pos: 5, Fingerprint: 9, FileCount: 3, Snapshot: snap}
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) { return cut, nil }); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.catchup) != 1 {
		t.Fatalf("follower saw %d catch-ups, want 1", len(rec.catchup))
	}
	got := rec.catchup[0]
	if got.Pos != 5 || got.Fingerprint != 9 || got.FileCount != 3 {
		t.Fatalf("catch-up header mangled: %+v", got)
	}
	if !bytes.Equal(got.Snapshot, snap) {
		t.Fatalf("reassembled snapshot differs: %d bytes vs %d", len(got.Snapshot), len(snap))
	}
}

// blockingReplica wedges on every Replicate until released — the
// connected-but-stuck follower shape.
type blockingReplica struct {
	*replicaRecorder
	release chan struct{}
}

func (b *blockingReplica) Replicate(conn uint64, pos uint64, recs []trace.Record) error {
	<-b.release
	return nil
}

// TestReplicatorDetachesWedgedFollower: a follower that accepts the
// connection but never acks is detached after the ack timeout instead of
// blocking the primary's writes forever.
func TestReplicatorDetachesWedgedFollower(t *testing.T) {
	rec := &blockingReplica{
		replicaRecorder: &replicaRecorder{minerBackend: newMinerBackend(1)},
		release:         make(chan struct{}),
	}
	addr, _, _ := startServer(t, rec)
	defer close(rec.release) // unwedge the handler so the test binary exits

	lost := make(chan string, 1)
	var miner fedCounter
	r := NewReplicator(miner.fed, 50*time.Millisecond, DialOptions{}, noFingerprint, func(addr string, err error) {
		if !strings.Contains(err.Error(), "wedged") {
			t.Errorf("lost reason %v, want the wedged hint", err)
		}
		lost <- addr
	})
	defer r.Close()
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) { return CatchupCut{}, nil }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Ingest(context.Background(), []trace.Record{{File: 1, Path: "/x"}}, miner.mine(1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Ingest blocked %v on a wedged follower", elapsed)
	}
	select {
	case <-lost:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged follower never detached")
	}
	if got := r.Followers(); len(got) != 0 {
		t.Fatalf("wedged follower still attached: %v", got)
	}
}
