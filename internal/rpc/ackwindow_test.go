package rpc

import (
	"context"
	"errors"
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

// TestAckWindowFeedAndFlush: a windowed stream lands every record (the Flush
// barrier accounts for all in-flight acks) and mines state bit-identical to
// sequential feeding, while the window bound holds throughout.
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
	ctx := context.Background()

	const n = 16
	w := c.NewAckWindow(n)
	for i := range tr.Records {
		if err := w.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if f := w.InFlight(); f > n {
			t.Fatalf("record %d: %d frames in flight exceeds window %d", i, f, n)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if f := w.InFlight(); f != 0 {
		t.Fatalf("%d frames in flight after Flush", f)
	}
	if got := b.sm.Fed(); got != uint64(len(tr.Records)) {
		t.Fatalf("backend fed %d of %d", got, len(tr.Records))
	}

	ref := core.NewSharded(core.DefaultConfig())
	for i := range tr.Records {
		ref.Feed(&tr.Records[i])
	}
	fc := ref.TrackedFileCount()
	if got, want := core.StateFingerprint(b.sm, fc), core.StateFingerprint(ref, fc); got != want {
		t.Fatalf("windowed state fingerprint %x != sequential %x", got, want)
	}
}

// TestAckWindowFeedBatch: batches ride window slots frame by frame and land
// exactly once.
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
	ctx := context.Background()

	w := c.NewAckWindow(4)
	for lo := 0; lo < len(tr.Records); lo += 512 {
		hi := lo + 512
		if hi > len(tr.Records) {
			hi = len(tr.Records)
		}
		if err := w.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.sm.Fed(); got != uint64(len(tr.Records)) {
		t.Fatalf("backend fed %d of %d", got, len(tr.Records))
	}
}

// TestAckWindowStickyErrorAndResume: the first failed ack poisons the
// window — later Feeds fail fast without sending — and Flush surfaces then
// clears it, after which the same window carries the resumed stream.
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

	w := c.NewAckWindow(4)
	for i := 0; i < 8; i++ {
		if err := w.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatalf("healthy record %d: %v", i, err)
		}
	}
	fb.fault(errors.New("injected mining fault"))

	// Keep feeding until a reaped ack surfaces the fault.
	var first error
	for i := 8; i < len(tr.Records); i++ {
		if first = w.Feed(ctx, &tr.Records[i]); first != nil {
			break
		}
	}
	if first == nil {
		first = w.Flush(ctx)
	}
	if first == nil {
		t.Fatal("injected fault never surfaced")
	}

	// Sticky: the next Feed fails fast with the SAME first error, even
	// though the backend has already recovered — nothing is re-sent past a
	// failure until the caller flushes.
	fb.fault(nil)
	if err := w.Feed(ctx, &tr.Records[0]); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("post-fault Feed: got %v, want the sticky %v", err, first)
	}
	if w.Err() == nil {
		t.Fatal("Err lost the sticky failure")
	}

	// Flush drains, surfaces the first failure once, and clears it.
	if err := w.Flush(ctx); err == nil {
		t.Fatal("Flush swallowed the sticky failure")
	}
	if w.Err() != nil {
		t.Fatalf("sticky error survived Flush: %v", w.Err())
	}
	if w.InFlight() != 0 {
		t.Fatalf("%d frames in flight after Flush", w.InFlight())
	}

	// The cleared window carries the resumed stream.
	before := fb.minerBackend.sm.Fed()
	for i := 0; i < 32; i++ {
		if err := w.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatalf("resumed record %d: %v", i, err)
		}
	}
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.minerBackend.sm.Fed(); got != before+32 {
		t.Fatalf("resumed stream landed %d records, want 32", got-before)
	}
}

// TestAckWindowDisconnectPoisons: a connection loss fails the whole window
// with the typed in-doubt error.
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

	w := c.NewAckWindow(64)
	for i := 0; i < 32; i++ {
		if err := w.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	stop() // server gone: in-flight acks die with the connection
	err = w.Flush(ctx)
	for i := 0; err == nil && i < 64; i++ {
		err = w.Feed(ctx, &tr.Records[i%len(tr.Records)])
		if err == nil {
			err = w.Flush(ctx)
		}
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("window over a dead connection: got %v, want ErrDisconnected", err)
	}
}
