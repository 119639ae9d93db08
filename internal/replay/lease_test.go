package replay

// The lease layer's in-process correctness claims (ISSUE 10):
//
//	(a) `farmerctl rebalance` — a live handoff from a standalone source to
//	    a fresh follower — moves the lease and the mined state with a final
//	    fingerprint bit-identical to the sequential reference, while the
//	    deposed source refuses writes typed;
//	(b) the multi-address client's failover sweep prefers the lease holder:
//	    an old primary that is perfectly reachable but no longer holds the
//	    lease must not win the sweep just by answering first.

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
