package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
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
	if _, err := client.Groups(ctx, GroupsReq{FileCount: 1}); !errors.As(err, &we) || we.Code != CodeUnsupported {
		t.Fatalf("Groups on a plain backend: %v", err)
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
func (b *replicaRecorder) ReplicateGroups(conn uint64, pos uint64, req GroupsReq) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.poss = append(b.poss, pos)
	return nil
}
func (b *replicaRecorder) Groups(req GroupsReq) (GroupsInfo, error) { return GroupsInfo{}, nil }
func (b *replicaRecorder) ConnClosed(conn uint64)                   {}

// TestReplicatorStreamOrdering: the Replicator ships catch-up first, then
// every batch at a strictly contiguous position, whatever the interleaving
// of Ingest calls.
func TestReplicatorStreamOrdering(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()

	const startPos = 7
	r := NewReplicator(startPos, 0, nil)
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
		if err := r.Ingest(ctx, recs, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		pos += uint64(n)
	}
	r.mu.Lock()
	got := r.pos
	r.mu.Unlock()
	if got != pos {
		t.Fatalf("replicator position %d, want %d", got, pos)
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

// TestReplicatorDetachesDeadFollower: a follower that dies mid-stream is
// dropped (reported via the lost callback) and the primary keeps ingesting.
func TestReplicatorDetachesDeadFollower(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, srv, _ := startServer(t, rec)

	lost := make(chan string, 1)
	r := NewReplicator(0, 0, func(addr string, err error) { lost <- addr })
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
		if err := r.Ingest(context.Background(), recs, func() error { return nil }); err != nil {
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
// a replica-capable backend: MsgGroups (read flag round trip), MsgLoad and
// a kind-1 (group command) replicate frame, plus the MsgErr formatting.
func TestGroupsAndLoadOverTheWire(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()
	client := dialT(t, addr)
	defer client.Close()
	ctx := context.Background()

	info, err := client.Groups(ctx, GroupsReq{FileCount: 9, MinDegree: 0.5, Read: true})
	if err != nil {
		t.Fatal(err)
	}
	if info != (GroupsInfo{}) {
		t.Fatalf("recorder backend returned %+v", info)
	}
	if err := client.Load(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Promote(ctx); err != nil {
		t.Fatal(err)
	}

	r := NewReplicator(3, 0, nil)
	defer r.Close()
	if err := r.Attach(ctx, addr, func() (CatchupCut, error) { return CatchupCut{Pos: 3}, nil }); err != nil {
		t.Fatal(err)
	}
	req := GroupsReq{FileCount: 7, MinDegree: 0.25}
	if err := r.Groups(ctx, req, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The command landed at the stream position.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		n := len(rec.poss)
		rec.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group command never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	if rec.poss[0] != 3 {
		t.Fatalf("group command at position %d, want 3", rec.poss[0])
	}
	rec.mu.Unlock()

	// A local run error aborts before shipping.
	boom := errors.New("boom")
	if err := r.Groups(ctx, req, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Groups run error: %v", err)
	}

	we := &WireError{Code: CodeInternal, Msg: "hello"}
	if s := we.Error(); !strings.Contains(s, "hello") {
		t.Fatalf("WireError.Error() = %q", s)
	}
}

// TestGroupsReqCodec pins the request/response body round trips.
func TestGroupsReqCodec(t *testing.T) {
	for _, req := range []GroupsReq{
		{FileCount: 0, MinDegree: 0, Read: false},
		{FileCount: 12345, MinDegree: 0.4, Read: true},
	} {
		got, err := decodeGroupsReq(appendGroupsReq(nil, &req))
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("round trip %+v != %+v", got, req)
		}
	}
	if _, err := decodeGroupsReq([]byte{1, 2}); err == nil {
		t.Fatal("short groups request accepted")
	}
	bad := appendGroupsReq(nil, &GroupsReq{})
	bad[12] = 0xFF
	if _, err := decodeGroupsReq(bad); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	info := GroupsInfo{Fingerprint: 7, Groups: 3, Versions: 9}
	got, err := decodeGroupsInfo(appendGroupsInfo(nil, info))
	if err != nil || got != info {
		t.Fatalf("info round trip: %+v, %v", got, err)
	}
	if _, err := decodeGroupsInfo([]byte{1}); err == nil {
		t.Fatal("short groups info accepted")
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
	r := NewReplicator(5, 0, nil)
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
	r := NewReplicator(0, 50*time.Millisecond, func(addr string, err error) {
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
	if err := r.Ingest(context.Background(), []trace.Record{{File: 1, Path: "/x"}}, func() error { return nil }); err != nil {
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
