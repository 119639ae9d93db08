package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
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
func (b *minerBackend) Stats() core.Stats { return b.sm.Stats() }
func (b *minerBackend) Save() error       { b.saves++; return b.saveErr }
func (b *minerBackend) Load() error       { return nil }

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

// retiredEventsHex is the golden body of the events frame as it stood when
// the frame was retired: three events, one without a vector.
const retiredEventsHex = "03000000010000000007000000000000000000000001000000000000000200000003000000753a3103000000703a32040000002f612f62000700000009000000cdccccccccccec3f02000000000000000100000003000000753a3100000000000300000009000000000000000000f03f02000000000000000000000000000000"

// TestRetiredSlotAnswersUnsupported: type 9 carried mining events between
// processes until PR 24 retired it. A frame of that type — here with the
// body an old sender would put in it — is an unknown request type like any
// other, not a decoder, and costs the connection nothing.
func TestRetiredSlotAnswersUnsupported(t *testing.T) {
	b := newMinerBackend(1)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	_, err := c.call(context.Background(), MsgType(9), unhex(t, retiredEventsHex))
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeUnsupported || !strings.Contains(we.Msg, "unknown request type 9") {
		t.Fatalf("a type-9 frame answered %v, want CodeUnsupported: unknown request type 9", err)
	}
	if st := b.sm.Stats(); st.TrackedFiles != 0 {
		t.Fatalf("a type-9 frame reached the miner: %+v", st)
	}
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("the connection did not survive a type-9 frame: %v", err)
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
