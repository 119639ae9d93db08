package replay

// The lease layer's in-process correctness claims (ISSUE 10):
//
//	(a) `farmerctl rebalance` — a live handoff from a standalone source to
//	    a fresh follower — moves the lease and the mined state with a final
//	    fingerprint bit-identical to the sequential reference, while the
//	    deposed source refuses writes typed;
//	(b) the multi-address client's failover sweep prefers the lease holder:
//	    an old primary that is perfectly reachable but no longer holds the
//	    lease must not win the sweep just by answering first;
//	(c) the lease and the mined state survive a chain of two handoffs.

import (
	"context"
	"errors"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/rpc"
	"farmer/internal/tracegen"
)

// TestRebalanceLiveBitIdentical: feed half the trace into a lease-holding
// standalone daemon, hand off to a fresh follower mid-stream, feed the rest
// through the same multi-address client (which reroutes on the typed
// stale-epoch refusal), and prove the target's final state bit-identical to
// mining the whole trace sequentially — nothing lost, nothing double-mined.
func TestRebalanceLiveBitIdentical(t *testing.T) {
	tr := tracegen.HP(20000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()
	const ttl = time.Second

	target, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	tAddr, tStop := startServeRole(t, target, farmer.ServeConfig{Follower: true, LeaseTTL: ttl})
	defer tStop()

	source, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	sAddr, sStop := startServeRole(t, source, farmer.ServeConfig{LeaseTTL: ttl})
	defer sStop()

	client, err := farmer.Dial(ctx, sAddr, farmer.WithFailover(tAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	half := len(tr.Records) / 2
	const chunk = 1024
	for lo := 0; lo < half; lo += chunk {
		if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+chunk, half)]); err != nil {
			t.Fatal(err)
		}
	}

	// The live handoff: ship state over catch-up, transfer the lease.
	if err := client.Handoff(ctx, tAddr); err != nil {
		t.Fatalf("handoff: %v", err)
	}

	// The same client finishes the trace; the source's typed refusal steers
	// every remaining batch to the new lease holder transparently.
	for lo := half; lo < len(tr.Records); lo += chunk {
		if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+chunk, len(tr.Records))]); err != nil {
			t.Fatalf("post-handoff feed at %d: %v", lo, err)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("target fed %d, want %d", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(target.Sharded(), tr.FileCount); got != ref {
		t.Fatalf("handed-off state fingerprint %#x != sequential %#x", got, ref)
	}
	info, err := client.LeaseStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Self || info.Epoch != 2 {
		t.Fatalf("post-handoff lease %+v, want the target leading at epoch 2", info)
	}

	// The deposed source refuses writes typed — no silent divergence. A raw
	// protocol client sees the refusal undecorated by failover.
	rc, err := rpc.Dial(ctx, sAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Feed(ctx, &tr.Records[0]); !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("deposed source refused with %v, want ErrStaleEpoch", err)
	}
	if fed := source.Sharded().Fed(); fed != uint64(len(tr.Records))/2 {
		t.Fatalf("deposed source mined past the handoff: fed=%d", fed)
	}
}

// TestHandoffChainBitIdentical: the lease moves twice, A → B → C, with the
// trace fed in thirds around the handoffs through one multi-address client.
// B's miner was fed by A's catch-up and stream, never through B's own
// replicator, so B's catch-up of C is right only if B's stream position is
// its miner's record count. C ends bit-identical to the sequential miner,
// and both deposed daemons refuse writes typed.
func TestHandoffChainBitIdentical(t *testing.T) {
	tr := tracegen.HP(15000).MustGenerate()
	ref := MineSequential(tr, core.DefaultConfig())
	ctx := context.Background()
	const ttl = time.Second

	var addrs [3]string
	var miners [3]*farmer.LocalMiner
	for i := range miners {
		m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		addr, stop := startServeRole(t, m, farmer.ServeConfig{Follower: i > 0, LeaseTTL: ttl})
		defer stop()
		addrs[i], miners[i] = addr, m
	}
	client, err := farmer.Dial(ctx, addrs[0], farmer.WithFailover(addrs[1], addrs[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	third := len(tr.Records) / 3
	feed := func(lo, hi int) {
		t.Helper()
		for ; lo < hi; lo += 1024 {
			if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+1024, hi)]); err != nil {
				t.Fatalf("feed at %d: %v", lo, err)
			}
		}
	}
	feed(0, third)
	if err := client.Handoff(ctx, addrs[1]); err != nil {
		t.Fatalf("handoff A → B: %v", err)
	}
	feed(third, 2*third)
	if err := client.Handoff(ctx, addrs[2]); err != nil {
		t.Fatalf("handoff B → C: %v", err)
	}
	feed(2*third, len(tr.Records))

	if fed := miners[2].Sharded().Fed(); fed != uint64(len(tr.Records)) {
		t.Fatalf("C fed %d, want %d", fed, len(tr.Records))
	}
	if got := core.StateFingerprint(miners[2].Sharded(), tr.FileCount); got != ref {
		t.Fatalf("C's fingerprint %#x != sequential %#x", got, ref)
	}
	info, err := client.LeaseStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Self || info.Epoch != 3 {
		t.Fatalf("lease after two handoffs %+v, want C leading at epoch 3", info)
	}
	for i, want := range []uint64{uint64(third), uint64(2 * third)} {
		rc, err := rpc.Dial(ctx, addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if err := rc.Feed(ctx, &tr.Records[0]); !errors.Is(err, rpc.ErrStaleEpoch) {
			t.Fatalf("deposed daemon %d refused with %v, want ErrStaleEpoch", i, err)
		}
		if fed := miners[i].Sharded().Fed(); fed != want {
			t.Fatalf("deposed daemon %d mined past its handoff: fed %d, want %d", i, fed, want)
		}
	}
}

// TestDialSweepPrefersLeaseHolder is the failover-sweep regression (ISSUE 10
// satellite): a FRESH multi-address client whose first address is a
// reachable daemon without the lease must land its writes on the lease
// holder. Before leases, Promote on a reachable non-follower answered
// "already primary" and the sweep stuck to the old daemon, silently losing
// the writes to its refusals.
func TestDialSweepPrefersLeaseHolder(t *testing.T) {
	tr := tracegen.HP(4000).MustGenerate()
	ctx := context.Background()
	const ttl = time.Second

	target, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	tAddr, tStop := startServeRole(t, target, farmer.ServeConfig{Follower: true, LeaseTTL: ttl})
	defer tStop()

	source, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	sAddr, sStop := startServeRole(t, source, farmer.ServeConfig{LeaseTTL: ttl})
	defer sStop()

	// Depose the source: hand the lease to the target.
	admin, err := farmer.Dial(ctx, sAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.Handoff(ctx, tAddr); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	admin.Close()

	// A fresh client listing the DEPOSED daemon first: it is reachable and
	// answers everything — except it no longer holds the lease.
	client, err := farmer.Dial(ctx, sAddr, farmer.WithFailover(tAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatalf("feed through a deposed first address: %v", err)
	}

	if fed := source.Sharded().Fed(); fed != 0 {
		t.Fatalf("the sweep steered %d records to the deposed daemon", fed)
	}
	if fed := target.Sharded().Fed(); fed != uint64(len(tr.Records)) {
		t.Fatalf("lease holder fed %d, want %d", fed, len(tr.Records))
	}
	info, err := client.LeaseStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Self {
		t.Fatalf("client settled on a non-holder: %+v", info)
	}
}
