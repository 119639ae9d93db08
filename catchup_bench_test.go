package farmer

// Catch-up cost, full snapshot vs delta replay, over a real loopback
// attach. Full ships the whole model (O(model) regardless of how little
// the follower missed); delta replays just the records the follower's
// checkpoint is behind by (O(missed)), which is the restart-lag case the
// resumable tail exists for.

import (
	"context"
	"net"
	"testing"
	"time"

	"farmer/internal/kvstore"
	"farmer/internal/rpc"
)

const benchCatchupRecords = 20000

func benchServeFollower(b *testing.B, m *LocalMiner) (addr string, stop func()) {
	b.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, lis, m, ServeConfig{Follower: true}) }()
	return lis.Addr().String(), func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			b.Fatal("follower serve did not drain")
		}
	}
}

// BenchmarkCatchupFull attaches a fresh, empty follower each iteration: the
// primary cuts and ships its entire state regardless of follower position.
func BenchmarkCatchupFull(b *testing.B) {
	tr, err := Generate(HP(benchCatchupRecords))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ConfigFor(tr)
	ctx := context.Background()
	primary, err := Open(cfg, WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	if err := primary.FeedBatch(ctx, tr.Records); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := Open(cfg, WithShards(2))
		if err != nil {
			b.Fatal(err)
		}
		addr, stop := benchServeFollower(b, f)
		r := rpc.NewReplicator(primary.sm.Fed(), time.Minute, rpc.DialOptions{}, primary.catchupFingerprint, nil)
		b.StartTimer()
		if err := r.Attach(ctx, addr, primary.catchupCut); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if fed := f.sm.Fed(); fed != uint64(len(tr.Records)) {
			b.Fatalf("follower fed %d after full catch-up, want %d", fed, len(tr.Records))
		}
		r.Close()
		stop()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkCatchupDelta attaches a follower that restarted from a
// checkpoint tailN records behind the primary: the primary replays only
// those records from its resumable tail, O(missed) instead of O(model).
func BenchmarkCatchupDelta(b *testing.B) {
	const tailN = 512
	tr, err := Generate(HP(benchCatchupRecords))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ConfigFor(tr)
	ctx := context.Background()
	base, tail := tr.Records[:len(tr.Records)-tailN], tr.Records[len(tr.Records)-tailN:]

	primary, err := Open(cfg, WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	if err := primary.FeedBatch(ctx, tr.Records); err != nil {
		b.Fatal(err)
	}

	// The followers all restart from the same checkpoint, cut at the base
	// boundary by a separate miner (deterministic mining makes its state
	// identical to the primary's own at that position).
	seeder, err := Open(cfg, WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	if err := seeder.FeedBatch(ctx, base); err != nil {
		b.Fatal(err)
	}
	seedStore, err := kvstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer seedStore.Close()
	if err := seeder.sm.SaveMerged(seedStore); err != nil {
		b.Fatal(err)
	}
	seeder.Close()

	fellBack := false
	cut := func() (rpc.CatchupCut, error) {
		fellBack = true
		return primary.catchupCut()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := Open(cfg, WithShards(2))
		if err != nil {
			b.Fatal(err)
		}
		if err := f.sm.LoadMerged(seedStore); err != nil {
			b.Fatal(err)
		}
		addr, stop := benchServeFollower(b, f)
		// Prime a replicator exactly as a restarted primary would stand:
		// position at the stream head with the last tailN records resumable.
		// The no-op mine skips local ingestion — the primary's model already
		// holds the whole stream.
		r := rpc.NewReplicator(uint64(len(base)), time.Minute, rpc.DialOptions{}, primary.catchupFingerprint, nil)
		if err := r.Ingest(ctx, tail, func() error { return nil }); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := r.Attach(ctx, addr, cut); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if fellBack {
			b.Fatal("delta catch-up fell back to a full snapshot")
		}
		if fed := f.sm.Fed(); fed != uint64(len(tr.Records)) {
			b.Fatalf("follower fed %d after delta catch-up, want %d", fed, len(tr.Records))
		}
		r.Close()
		stop()
		f.Close()
		b.StartTimer()
	}
}
