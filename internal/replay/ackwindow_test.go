package replay

// Acked-writer wire proof: a farmer.Dial client's synchronous Feeds and
// FeedBatches must mine bit-identical state to sequential feeding while
// concurrent readers on the same server hammer the serving miner's shards,
// and the whole arrangement must be clean under -race.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/tracegen"
)

// TestAckWindowWireBitIdentical: acked writer + concurrent readers against a
// loopback farmerd; once the last FeedBatch returns, the remote state
// fingerprints identical to the sequential reference.
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
	writer, err := farmer.Dial(ctx, addr)
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
	// serving miner's shard locks — while the writer streams. Answers race
	// ingestion, so only errors are asserted here; the data proof is the
	// final fingerprint.
	var stopReads atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stopReads.Load(); i++ {
				f := tr.Records[(seed*7919+i)%len(tr.Records)].File
				if _, err := reader.Predict(ctx, f, 4); err != nil {
					t.Errorf("predict during feed: %v", err)
					return
				}
				if _, err := reader.CorrelatorList(ctx, f); err != nil {
					t.Errorf("list during feed: %v", err)
					return
				}
			}
		}(g)
	}

	// Mixed acked feeding: single-record Feeds plus batches.
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
	stopReads.Store(true)
	wg.Wait()

	// Every call returned acked: the server holds every record, and the
	// mined state is bit-identical to the sequential miner.
	st, err := writer.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("server fed %d of %d after the last ack", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, reader}, tr.FileCount); got != ref {
		t.Fatalf("remote fingerprint %#x != sequential %#x", got, ref)
	}
	if got := core.StateFingerprint(served.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("served miner fingerprint %#x != sequential %#x", got, ref)
	}
}
