package farmer

// Catch-up cost, full snapshot vs resume, over a real loopback attach. Full
// ships the whole model (O(model) regardless of how little the follower
// missed); a follower restarted at the primary's position resumes with the
// fingerprint check alone, the restart-both-from-disk case.

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
		r := rpc.NewReplicator(primary.sm.Fed, time.Minute, rpc.DialOptions{}, primary.catchupFingerprint, nil)
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

// BenchmarkCatchupResume attaches a follower that restarted from a
// checkpoint at the primary's position: the attach is one empty final
// MsgCatchupDelta and the follower's fingerprint check, O(fingerprint)
// instead of O(model) on the wire.
func BenchmarkCatchupResume(b *testing.B) {
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
	// Every follower restarts from the same checkpoint of the primary's
	// state.
	seedStore, err := kvstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer seedStore.Close()
	if err := primary.sm.SaveMerged(seedStore); err != nil {
		b.Fatal(err)
	}

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
		r := rpc.NewReplicator(primary.sm.Fed, time.Minute, rpc.DialOptions{}, primary.catchupFingerprint, nil)
		b.StartTimer()
		if err := r.Attach(ctx, addr, cut); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if fellBack {
			b.Fatal("the resume fell back to a full snapshot")
		}
		if fed := f.sm.Fed(); fed != uint64(len(tr.Records)) {
			b.Fatalf("follower fed %d after the resume, want %d", fed, len(tr.Records))
		}
		r.Close()
		stop()
		f.Close()
		b.StartTimer()
	}
}
