package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// minerBackend is the test backend: a real sharded miner, plus knobs for
// failure injection.
type minerBackend struct {
	sm      *core.ShardedModel
	saveErr error
	saves   int

	mu  sync.Mutex
	fed int
}

func newMinerBackend(shards int) *minerBackend {
	cfg := core.DefaultConfig()
	cfg.Shards = shards
	return &minerBackend{sm: core.NewSharded(cfg)}
}

func (b *minerBackend) Feed(r *trace.Record) error {
	b.mu.Lock()
	b.fed++
	b.mu.Unlock()
	b.sm.Feed(r)
	return nil
}
func (b *minerBackend) FeedBatch(recs []trace.Record) error          { b.sm.FeedBatch(recs); return nil }
func (b *minerBackend) Predict(f trace.FileID, k int) []trace.FileID { return b.sm.Predict(f, k) }
func (b *minerBackend) CorrelatorList(f trace.FileID) []core.Correlator {
	return b.sm.CorrelatorList(f)
}
func (b *minerBackend) Stats() core.Stats                       { return b.sm.Stats() }
func (b *minerBackend) ApplyEvents(evs []partition.Event) error { b.sm.ApplyExternal(evs); return nil }
func (b *minerBackend) Save() error                             { b.saves++; return b.saveErr }
func (b *minerBackend) Load() error                             { return nil }

// startServer runs a server on a loopback listener and returns its address
// plus a stop function that asserts a clean drain.
func startServer(t *testing.T, b Backend) (string, *Server, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return lis.Addr().String(), srv, stop
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("hello wire")
	buf := AppendFrame(nil, MsgFeed, 42, body)
	f, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgFeed || f.ID != 42 || string(f.Body) != string(body) {
		t.Fatalf("round trip got %+v", f)
	}
}

func TestFrameRejectsVersionAndSize(t *testing.T) {
	buf := AppendFrame(nil, MsgPing, 1, nil)
	buf[4] = 99 // version byte
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf))); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestEventBodyRoundTrip(t *testing.T) {
	evs := []partition.Event{
		{Succ: 7, Vec: &vsm.Vector{Scalars: []string{"u:1", "p:2"}, Path: "/a/b"}, Seq: 1, Access: true},
		{Pred: 7, Succ: 9, Credit: 0.9, Vec: &vsm.Vector{Scalars: []string{"u:1"}}, Seq: 2},
		{Pred: 3, Succ: 9, Credit: 1, Seq: 2}, // no vector: ships as the empty one
	}
	body := appendEvents(nil, evs)
	got, err := consumeEvents(body)
	if err != nil {
		t.Fatal(err)
	}
	evs[2].Vec = new(vsm.Vector) // and a decoded event always has one
	if !reflect.DeepEqual(evs, got) {
		t.Fatalf("events round trip:\n want %+v\n got  %+v", evs, got)
	}
	if !bytes.Equal(body, appendEvents(nil, evs)) {
		t.Error("an event without a vector and one with the empty vector encode differently")
	}
	// The vectors of a frame are one arena beside the events, not one
	// allocation an event: what else a body allocates is its strings.
	bare := appendEvents(nil, make([]partition.Event, 64))
	if n := testing.AllocsPerRun(10, func() { _, _ = consumeEvents(bare) }); n > 2 {
		t.Errorf("decoding 64 events without strings allocates %v times, want the events and their vectors", n)
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	tr, err := tracegen.HP(2000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FeedBatch(ctx, tr.Records[100:]); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("remote fed %d, want %d", st.Fed, len(tr.Records))
	}
	if want := b.sm.Stats(); st != want {
		t.Fatalf("stats over the wire %+v != local %+v", st, want)
	}

	// Every list must cross the wire bit-exactly.
	for f := 0; f < tr.FileCount; f++ {
		want := b.sm.CorrelatorList(trace.FileID(f))
		got, err := c.CorrelatorList(ctx, trace.FileID(f))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("file %d list differs over the wire", f)
		}
		wantP := b.sm.Predict(trace.FileID(f), 4)
		gotP, err := c.Predict(ctx, trace.FileID(f), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("file %d prediction differs over the wire", f)
		}
	}
}

func TestServerErrorPropagation(t *testing.T) {
	b := newMinerBackend(1)
	b.saveErr = fmt.Errorf("disk on fire")
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	err := c.Save(context.Background())
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeInternal || we.Msg != "disk on fire" {
		t.Fatalf("want CodeInternal wire error, got %v", err)
	}
	// The connection must survive an application error.
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("connection dead after error response: %v", err)
	}
	if b.saves != 1 {
		t.Fatalf("backend saw %d saves", b.saves)
	}
}

func TestServerRejectsMalformedBody(t *testing.T) {
	addr, _, stop := startServer(t, newMinerBackend(1))
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	_, err := c.call(context.Background(), MsgPredict, []byte{1, 2, 3})
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %v", err)
	}
	_, err = c.call(context.Background(), MsgType(0xEE), nil)
	if !errors.As(err, &we) || we.Code != CodeUnsupported {
		t.Fatalf("want CodeUnsupported, got %v", err)
	}
}

// TestPipelining issues a burst of concurrent calls over one connection and
// checks they all complete (matched by id, not by order).
func TestPipelining(t *testing.T) {
	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	tr, err := tracegen.HP(4000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := w; i < len(tr.Records); i += 8 {
				if err := c.Feed(ctx, &tr.Records[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("fed %d, want %d", st.Fed, len(tr.Records))
	}
}

// TestGracefulDrain shuts the server down while a client has in-flight
// work; the in-flight request must complete, later ones must fail cleanly.
func TestGracefulDrain(t *testing.T) {
	b := newMinerBackend(1)
	addr, srv, _ := startServer(t, b)
	c := dialT(t, addr)
	defer c.Close()

	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The drained server must refuse new work with a transport error, not
	// hang.
	if _, err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping succeeded against a drained server")
	}
}

func TestClientContextCancel(t *testing.T) {
	b := newMinerBackend(1)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Feed(ctx, &trace.Record{File: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The client must remain usable after an abandoned call.
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNetOwnerBitIdentical routes a dispatcher's events to a remote miner
// over the wire and checks the remote mined state equals a locally fed
// model, bit for bit.
func TestNetOwnerBitIdentical(t *testing.T) {
	tr, err := tracegen.HP(3000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()

	// Reference: plain sequential model.
	ref := core.New(mc)
	ref.FeedTrace(tr)

	b := newMinerBackend(2) // remote server stripes internally
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	owner := NewNetOwner(c, 16)

	d := partition.NewDispatcher(partition.Config{
		Owners:      1,
		Partitioner: partition.Hash,
		Mask:        mc.Mask,
		PathAlg:     mc.PathAlg,
		Graph:       mc.Graph,
	})
	var batch []partition.Event
	for i := range tr.Records {
		batch = batch[:0]
		d.Dispatch(&tr.Records[i], func(_ int, ev partition.Event) { batch = append(batch, ev) })
		owner.ApplyEvents(batch)
	}
	if err := owner.Flush(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < tr.FileCount; f++ {
		want := ref.CorrelatorList(trace.FileID(f))
		got := b.sm.CorrelatorList(trace.FileID(f))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("file %d: remote mined state differs from sequential reference", f)
		}
	}
}

// TestFeedBatchChunksOversizedBatches: a batch bigger than one frame's
// budget splits into pipelined frames; the remote still mines everything in
// order, and a single absurd body is refused client-side instead of
// poisoning the connection.
func TestFeedBatchChunksOversizedBatches(t *testing.T) {
	old := maxBatchBody
	maxBatchBody = 512 // force many frames
	defer func() { maxBatchBody = old }()

	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	tr, err := tracegen.HP(3000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	if got := b.sm.Fed(); got != uint64(len(tr.Records)) {
		t.Fatalf("chunked batch fed %d, want %d", got, len(tr.Records))
	}
	// Order preserved across frames: state equals a locally fed miner.
	cfg := core.DefaultConfig()
	cfg.Shards = 2
	local := core.NewSharded(cfg)
	local.FeedBatch(tr.Records)
	for f := 0; f < tr.FileCount; f += 11 {
		if !reflect.DeepEqual(local.CorrelatorList(trace.FileID(f)), b.sm.CorrelatorList(trace.FileID(f))) {
			t.Fatalf("file %d differs after chunked batch", f)
		}
	}

	// Oversize single frame: local refusal, connection survives.
	if _, err := c.start(MsgFeed, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize body: %v", err)
	}
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("connection poisoned by refused frame: %v", err)
	}
}

// TestDeepPathEventInstallsUncut: the hostile-input bound on the event path.
// An access event may carry a vector whose 1 MiB path has 512 Ki components;
// the server stores it without their 8 MiB of string headers, and the stored
// vector compares exactly as one that was never stored.
func TestDeepPathEventInstallsUncut(t *testing.T) {
	deep := vsm.Vector{Scalars: []string{"u:7"}, Path: strings.Repeat("a/", trace.MaxPathLen/2)}
	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	owner := NewNetOwner(c, 4)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	owner.ApplyEvents([]partition.Event{
		{Succ: 1, Vec: &deep, Seq: 1, Access: true},
		{Succ: 2, Vec: &vsm.Vector{Scalars: []string{"u:7"}, Path: "/a/b"}, Seq: 2, Access: true},
		{Pred: 1, Succ: 2, Credit: 1, Vec: &vsm.Vector{Scalars: []string{"u:7"}, Path: "/a/b"}, Seq: 2},
	})
	if err := owner.Flush(); err != nil {
		t.Fatal(err)
	}
	// The stored path is 1 MiB and the connection's buffers have grown to
	// hold it; what Sim cut to compare it is garbage by now.
	if kept := int64(live() - before); kept > 5<<20 {
		t.Fatalf("a %d-byte path through MsgApplyEvents left %d bytes live, want under %d", len(deep.Path), kept, 5<<20)
	}
	stored, ok := b.sm.Vector(1)
	if !ok || stored.Path != deep.Path {
		t.Fatal("the deep vector did not install")
	}
	other := vsm.Vector{Scalars: []string{"u:7"}, Path: "/a/b"}
	want := vsm.Sim(&deep, &other, vsm.IPA)
	if got := vsm.Sim(&stored, &other, vsm.IPA); got != want {
		t.Errorf("Sim of the installed vector = %v, of the same vector never stored %v", got, want)
	}
	if list := b.sm.CorrelatorList(1); len(list) != 1 || list[0].Sim != want {
		t.Errorf("the server mined %+v from it, want one entry of similarity %v", list, want)
	}
}
