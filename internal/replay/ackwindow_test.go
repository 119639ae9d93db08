package replay

// Windowed-ack wire proofs: a farmer.Dial client in WithAckWindow mode must
// mine bit-identical state to sequential feeding — the window reorders ack
// WAITS, never frames — while concurrent readers hammer the serving miner's
// shards, and the whole arrangement must be clean under -race.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/tracegen"
)

// TestAckWindowWireBitIdentical: windowed writer + concurrent readers
// against a loopback farmerd; after the Flush
// barrier the remote state fingerprints identical to the sequential
// reference.
func TestAckWindowWireBitIdentical(t *testing.T) {
	tr := tracegen.HP(20000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)

	served, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startFarmerd(t, served)
	defer stop()

	ctx := context.Background()
	writer, err := farmer.Dial(ctx, addr, farmer.WithAckWindow(32))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// Readers: Predict and CorrelatorList through the wire — landing on the
	// serving miner's shard locks — while the windowed writer streams. Answers race ingestion, so only errors are asserted here; the
	// data proof is the post-Flush fingerprint.
	var stopReads atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stopReads.Load(); i++ {
				f := tr.Records[(seed*7919+i)%len(tr.Records)].File
				if _, err := reader.Predict(ctx, f, 4); err != nil {
					t.Errorf("predict during windowed feed: %v", err)
					return
				}
				if _, err := reader.CorrelatorList(ctx, f); err != nil {
					t.Errorf("list during windowed feed: %v", err)
					return
				}
			}
		}(g)
	}

	// Mixed windowed feeding: streaming Feeds plus batches.
	for i := 0; i < 2000; i++ {
		if err := writer.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 2000; lo < len(tr.Records); lo += 777 {
		hi := lo + 777
		if hi > len(tr.Records) {
			hi = len(tr.Records)
		}
		if err := writer.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	stopReads.Store(true)
	wg.Wait()

	// The Flush barrier makes "fed" mean "acked": the server holds every
	// record, and the mined state is bit-identical to the sequential miner.
	st, err := writer.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("server fed %d of %d after Flush", st.Fed, len(tr.Records))
	}
	if got := Fingerprint(remoteLister{t, reader}, tr.FileCount); got != ref {
		t.Fatalf("windowed-ack fingerprint %#x != sequential %#x", got, ref)
	}
	if got := Fingerprint(served.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("served miner fingerprint %#x != sequential %#x", got, ref)
	}
}

// BenchmarkAckWindowFeed measures the acked streaming path with windowed
// acks at several window sizes — the gap-closer for ROADMAP item 2's
// 16.2µs-acked vs 4.8µs-batched spread. Every iteration is one Feed whose
// ack resolves asynchronously; Flush settles the tail before the clock
// stops, so the figure is honest pipeline throughput, not unacked fire-and-
// forget.
func BenchmarkAckWindowFeed(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	for _, win := range []int{8, 32, 128} {
		b.Run(map[int]string{8: "w8", 32: "w32", 128: "w128"}[win], func(b *testing.B) {
			m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
			if err != nil {
				b.Fatal(err)
			}
			addr, stop := startFarmerd(b, m)
			defer stop()
			ctx := context.Background()
			client, err := farmer.Dial(ctx, addr, farmer.WithAckWindow(win))
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Feed(ctx, &tr.Records[i%len(tr.Records)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := client.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
