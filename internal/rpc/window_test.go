package rpc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// faultBackend wraps minerBackend, failing every Feed/FeedBatch while armed.
type faultBackend struct {
	*minerBackend
	mu     sync.Mutex
	broken error
}

func (b *faultBackend) fault(err error) {
	b.mu.Lock()
	b.broken = err
	b.mu.Unlock()
}

func (b *faultBackend) Feed(r *trace.Record) error {
	b.mu.Lock()
	err := b.broken
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return b.minerBackend.Feed(r)
}

func (b *faultBackend) FeedBatch(recs []trace.Record) error {
	b.mu.Lock()
	err := b.broken
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return b.minerBackend.FeedBatch(recs)
}

// startFeeds starts one MsgFeed frame per record on w.
func startFeeds(t *testing.T, w *window, recs []trace.Record) {
	t.Helper()
	for i := range recs {
		if err := w.start(MsgFeed, trace.AppendRecord(nil, &recs[i])); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// TestAckWindowFeedAndFlush: a window of single-record frames lands every
// record by the time flush returns — flush waits for every ack — and mines
// state bit-identical to sequential feeding.
func TestAckWindowFeedAndFlush(t *testing.T) {
	tr, err := tracegen.HP(3000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	w := window{c: c}
	startFeeds(t, &w, tr.Records)
	if err := w.flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(w.q) != 0 {
		t.Fatalf("%d frames in flight after flush", len(w.q))
	}
	if got := b.sm.Fed(); got != uint64(len(tr.Records)) {
		t.Fatalf("backend fed %d of %d when flush returned", got, len(tr.Records))
	}

	ref := core.NewSharded(core.DefaultConfig())
	for i := range tr.Records {
		ref.Feed(&tr.Records[i])
	}
	fc := ref.TrackedFileCount()
	if got, want := core.StateFingerprint(b.sm, fc), core.StateFingerprint(ref, fc); got != want {
		t.Fatalf("pipelined state fingerprint %x != sequential %x", got, want)
	}
}

// TestAckWindowFeedBatch: batch frames cut by chunkRecords ride one window
// and land exactly once by the time flush returns.
func TestAckWindowFeedBatch(t *testing.T) {
	tr, err := tracegen.HP(4000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b := newMinerBackend(1)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()

	w := window{c: c}
	frames := 0
	_ = chunkRecords(tr.Records, 16<<10, func(run []trace.Record) error {
		frames++
		return w.start(MsgFeedBatch, appendRecords(nil, run))
	})
	if frames < 2 {
		t.Fatalf("the batch went out as %d frame(s); the test needs several in flight", frames)
	}
	if err := w.flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.sm.Fed(); got != uint64(len(tr.Records)) {
		t.Fatalf("backend fed %d of %d", got, len(tr.Records))
	}
}

// TestAckWindowStickyErrorAndResume: the first failed ack is sticky — flush
// reports it, and a later start returns it without sending — while flush
// still collects every in-flight ack, so the connection's next call gets its
// own response. A fresh window carries the resumed stream.
func TestAckWindowStickyErrorAndResume(t *testing.T) {
	tr, err := tracegen.HP(500).Generate()
	if err != nil {
		t.Fatal(err)
	}
	fb := &faultBackend{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, fb)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	w := window{c: c}
	startFeeds(t, &w, tr.Records[:8])
	if err := w.flush(ctx); err != nil {
		t.Fatalf("healthy frames: %v", err)
	}
	fb.fault(errors.New("injected mining fault"))
	startFeeds(t, &w, tr.Records[8:16]) // sent: nothing has failed yet
	first := w.flush(ctx)
	if first == nil || !strings.Contains(first.Error(), "injected mining fault") {
		t.Fatalf("flush after the fault = %v, want the injected fault", first)
	}
	if len(w.q) != 0 {
		t.Fatalf("%d acks left uncollected after a failed flush", len(w.q))
	}

	// Sticky: the next start fails with the SAME first error and sends
	// nothing, even though the backend has recovered.
	fb.fault(nil)
	fed := fb.minerBackend.sm.Fed()
	if err := w.start(MsgFeed, trace.AppendRecord(nil, &tr.Records[0])); err != first {
		t.Fatalf("start after the failure = %v, want the sticky %v", err, first)
	}
	if len(w.q) != 0 {
		t.Fatal("a start after the failure put a frame in flight")
	}
	if err := w.flush(ctx); err != first {
		t.Fatalf("second flush = %v, want the sticky %v", err, first)
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping after the failed window: %v", err)
	}
	if got := fb.minerBackend.sm.Fed(); got != fed {
		t.Fatalf("backend fed %d after the failure, want %d: a poisoned window sent", got, fed)
	}

	// The caller resumes on a fresh window.
	r := window{c: c}
	startFeeds(t, &r, tr.Records[:32])
	if err := r.flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.minerBackend.sm.Fed(); got != fed+32 {
		t.Fatalf("resumed stream landed %d records, want 32", got-fed)
	}
}

// TestAckWindowDisconnectPoisons: a connection loss fails the window with
// the typed in-doubt error.
func TestAckWindowDisconnectPoisons(t *testing.T) {
	tr, err := tracegen.HP(200).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b := newMinerBackend(1)
	addr, _, stop := startServer(t, b)
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	w := window{c: c}
	startFeeds(t, &w, tr.Records[:32])
	stop() // server gone: in-flight acks die with the connection
	err = w.flush(ctx)
	for i := 0; err == nil && i < 64; i++ {
		if err = w.start(MsgFeed, trace.AppendRecord(nil, &tr.Records[i%len(tr.Records)])); err == nil {
			err = w.flush(ctx)
		}
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("window over a dead connection: got %v, want ErrDisconnected", err)
	}
}
