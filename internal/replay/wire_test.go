package replay

// The wire-transport half of the replay harness's correctness claims: a
// miner served by a live farmerd over loopback TCP must mine bit-identical
// state to the in-process ShardedModel and to the paper-exact sequential
// Model when the trace arrives through farmer.Dial.

import (
	"context"
	"net"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// startFarmerd serves m on a loopback listener — a live farmerd in every
// respect but the process boundary (same serve loop cmd/farmerd runs).
func startFarmerd(t testing.TB, m *farmer.LocalMiner) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- farmer.Serve(ctx, lis, m, farmer.ServeConfig{}) }()
	return lis.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("farmerd serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("farmerd did not drain")
		}
		m.Close()
	}
}

// remoteLister adapts a Dial client to the Fingerprint read surface.
type remoteLister struct {
	t testing.TB
	m *farmer.RemoteMiner
}

func (l remoteLister) CorrelatorList(f trace.FileID) []core.Correlator {
	list, err := l.m.CorrelatorList(context.Background(), f)
	if err != nil {
		l.t.Fatalf("remote list %d: %v", f, err)
	}
	return list
}

// TestWireLoopbackBitIdentical feeds the same trace to an in-process
// ShardedModel and to a farmer.Dial client backed by a live loopback
// farmerd, and asserts all three mined models — sequential reference,
// local sharded, remote — are bit-identical.
func TestWireLoopbackBitIdentical(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)

	cfg := farmer.DefaultConfig()
	local, err := farmer.Open(cfg, farmer.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if err := local.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(local.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("local sharded fingerprint %#x != sequential %#x", got, ref)
	}

	served, err := farmer.Open(cfg, farmer.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startFarmerd(t, served)
	defer stop()
	client, err := farmer.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Mixed feeding: streaming Feeds plus batches, as a real MDS would.
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		if err := client.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	const chunk = 1024
	for lo := 500; lo < len(tr.Records); lo += chunk {
		hi := min(lo+chunk, len(tr.Records))
		if err := client.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("remote fed %d, want %d", st.Fed, len(tr.Records))
	}
	if got := Fingerprint(remoteLister{t, client}, tr.FileCount); got != ref {
		t.Fatalf("remote fingerprint %#x != sequential %#x", got, ref)
	}
}

// BenchmarkLoopbackFeed measures the serving path's unit cost: one Feed
// round trip (record encode, frame, TCP loopback, mine, ack) against a live
// farmerd.
func BenchmarkLoopbackFeed(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	addr, stop := startFarmerd(b, m)
	defer stop()
	client, err := farmer.Dial(context.Background(), addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Feed(ctx, &tr.Records[i%len(tr.Records)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLoopbackFeedBatch measures the batched serving path: 1024
// records per frame, server mining with all shards in parallel.
func BenchmarkLoopbackFeedBatch(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	addr, stop := startFarmerd(b, m)
	defer stop()
	client, err := farmer.Dial(context.Background(), addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	const chunk = 1024
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		lo := fed % len(tr.Records)
		hi := min(lo+chunk, len(tr.Records))
		if hi-lo > b.N-fed {
			hi = lo + (b.N - fed)
		}
		if err := client.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			b.Fatal(err)
		}
		fed += hi - lo
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
