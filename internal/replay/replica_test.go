package replay

// The replication half of the replay harness's correctness claims
// (ISSUE 5 acceptance criteria):
//
//	(a) a primary→follower farmerd pair mines a bit-identical model
//	    fingerprint on HP/50k — including a follower that bootstrapped
//	    from a mid-stream catch-up checkpoint rather than record zero;
//	(b) killing the primary mid-trace loses no acked record: a client
//	    using multi-address farmer.Dial completes the trace against the
//	    promoted follower and the final state equals the sequential
//	    reference mine of the full trace.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/rpc"
	"farmer/internal/tracegen"
)

// startServeRole serves a miner with an arbitrary ServeConfig and returns a
// stop that tolerates drain errors — the shape the kill-the-primary tests
// need (a crash is not a clean drain).
func startServeRole(t testing.TB, m *farmer.LocalMiner, cfg farmer.ServeConfig) (addr string, stop func() error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- farmer.Serve(ctx, lis, m, cfg) }()
	return lis.Addr().String(), func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			t.Fatal("serve did not stop")
			return nil
		}
	}
}

// TestReplicatedPairBitIdenticalHP50k is acceptance criterion (a): on the
// HP/50k trace, a primary that already mined 20k records bootstraps a
// follower via catch-up (checkpoint snapshot + position + fingerprint) and
// streams the remaining 30k as they are acked; primary, follower and the
// sequential reference all fingerprint identically, at different shard
// counts on every node.
func TestReplicatedPairBitIdenticalHP50k(t *testing.T) {
	tr := tracegen.HP(50000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()
	const preFed = 20000

	follower, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServeRole(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	primary, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// The primary mined 20k records before the follower existed: the
	// catch-up must carry lists, vectors, graph and lookahead window for
	// the follower to continue bit-identically.
	if err := primary.FeedBatch(ctx, tr.Records[:preFed]); err != nil {
		t.Fatal(err)
	}
	pAddr, pStop := startServeRole(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}})
	defer pStop()

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const chunk = 1024
	for lo := preFed; lo < len(tr.Records); lo += chunk {
		hi := min(lo+chunk, len(tr.Records))
		if err := client.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	if got := core.StateFingerprint(primary.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("primary fingerprint %#x != sequential %#x", got, ref)
	}
	// Every client ack waited for the follower's ack, so the follower is
	// already byte-complete — no settling sleep needed.
	if got := core.StateFingerprint(follower.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("follower fingerprint %#x != sequential %#x", got, ref)
	}
	if fed := follower.Sharded().Fed(); fed != uint64(len(tr.Records)) {
		t.Fatalf("follower fed %d, want %d", fed, len(tr.Records))
	}
}

// TestFailoverLosesNoAckedRecord is acceptance criterion (b) in-process:
// the primary dies abruptly mid-trace (connections cut, no goodbye), the
// multi-address client fails over to the follower — which promotes because
// its primary link dropped — and the harness resumes from the survivor's
// Fed count. Nothing acked is lost, nothing is double-mined: the promoted
// follower finishes the trace bit-identical to the sequential reference.
func TestFailoverLosesNoAckedRecord(t *testing.T) {
	tr := tracegen.HP(50000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()

	follower, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServeRole(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	primary, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServeRole(t, primary, farmer.ServeConfig{
		ReplicateTo: []string{fAddr},
		// A near-zero drain makes the stop a crash: in-flight pipelines are
		// cut, not drained.
		DrainTimeout: time.Millisecond,
	})

	client, err := farmer.Dial(ctx, pAddr, farmer.WithFailover(fAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const chunk = 512
	const killAt = 25000
	killed := false
	acked := uint64(0)
	lo := 0
	for lo < len(tr.Records) {
		if !killed && lo >= killAt {
			pStop() // SIGKILL-shaped: ignore the drain error, the process is gone
			killed = true
		}
		hi := min(lo+chunk, len(tr.Records))
		err := client.FeedBatch(ctx, tr.Records[lo:hi])
		if err == nil {
			acked = uint64(hi)
			lo = hi
			continue
		}
		if !errors.Is(err, farmer.ErrDisconnected) {
			t.Fatalf("feed failed with %v at record %d", err, lo)
		}
		// In-doubt batch: resume from the survivor's exact position.
		st, serr := client.Stats(ctx)
		if serr != nil {
			t.Fatalf("failover stats: %v", serr)
		}
		if st.Fed < acked {
			t.Fatalf("ACKED RECORD LOST: survivor holds %d records, %d were acked", st.Fed, acked)
		}
		lo = int(st.Fed)
	}
	if !killed {
		t.Fatal("primary was never killed")
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("survivor fed %d, want %d", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(follower.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("promoted follower fingerprint %#x != sequential %#x (lost or double-mined records)", got, ref)
	}
}

// TestFollowerRejectsMismatchedCatchup is the satellite wire test: a
// CATCHUP whose claimed fingerprint does not match the snapshot it carries
// is refused with the follower's state untouched, and a correct catch-up on
// the same connection then succeeds.
func TestFollowerRejectsMismatchedCatchup(t *testing.T) {
	tr := tracegen.HP(5000).MustGenerate()
	ctx := context.Background()

	follower, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServeRole(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	// A would-be primary with real mined state, cut by the path the
	// replicator uses (ShardedModel.Cut), but claiming a corrupted
	// fingerprint.
	source, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	if err := source.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	snap, err := source.Sharded().Cut()
	if err != nil {
		t.Fatal(err)
	}
	fc := source.Sharded().TrackedFileCount()
	cut := rpc.CatchupCut{
		Pos:         source.Sharded().Fed(),
		Fingerprint: core.StateFingerprint(source.Sharded(), fc),
		FileCount:   fc,
		Snapshot:    snap,
	}

	c, err := rpc.Dial(ctx, fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := cut
	bad.Fingerprint ^= 1
	if err := c.Catchup(ctx, &bad); err == nil {
		t.Fatal("follower accepted a catch-up with a mismatched fingerprint")
	}
	if fed := follower.Sharded().Fed(); fed != 0 {
		t.Fatalf("rejected catch-up left state behind: fed=%d", fed)
	}

	if err := c.Catchup(ctx, &cut); err != nil {
		t.Fatalf("correct catch-up refused: %v", err)
	}
	if fed := follower.Sharded().Fed(); fed != uint64(len(tr.Records)) {
		t.Fatalf("follower installed %d records, want %d", fed, len(tr.Records))
	}
	if got, want := core.StateFingerprint(follower.Sharded(), tr.FileCount), core.StateFingerprint(source.Sharded(), tr.FileCount); got != want {
		t.Fatalf("installed state %#x != source %#x", got, want)
	}
}
