package farmer_test

// Regression tests for RemoteMiner.seekWritable. The old sweep skipped the
// current address whenever the current connection was down (it started at
// the NEXT address), and with a single-address client the skipped loop left
// lastErr nil — so seekWritable reported success without anyone having
// accepted promotion, and the retried write bounced off a still-unpromoted
// follower. Both tests verify the promotion server-side through a raw rpc
// connection, which never runs the client's promotion sweep itself — a nil
// seekWritable whose Promote never happened fails here.

import (
	"context"
	"errors"
	"testing"

	"farmer"
	"farmer/internal/rpc"
	"farmer/internal/trace"
)

// rawFeed feeds one record over a fresh raw rpc connection — no failover, no
// promotion sweep — so the result reflects exactly the server's role.
func rawFeed(t *testing.T, addr string) error {
	t.Helper()
	ctx := context.Background()
	c, err := rpc.DialWith(ctx, addr, rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Feed(ctx, &trace.Record{File: 1})
}

// TestSeekWritableSingleAddressPromotes: a single-address client whose
// connection died must still ask that address to promote. The old code
// returned nil success with nobody promoted; the raw follow-up write
// catches that lie.
func TestSeekWritableSingleAddressPromotes(t *testing.T) {
	ctx := context.Background()
	follower, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Orphaned follower: never linked to a primary, so it IS promotable.
	addr, stop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer stop()

	client, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := rawFeed(t, addr); !errors.Is(err, farmer.ErrNotPrimary) {
		t.Fatalf("un-promoted follower accepted a write: %v", err)
	}

	client.DropConn()
	if err := client.SeekWritable(ctx); err != nil {
		t.Fatalf("seekWritable with a promotable single address: %v", err)
	}
	// The success must mean a real server-side Promote, observable on a
	// connection that cannot promote anything itself.
	if err := rawFeed(t, addr); err != nil {
		t.Fatalf("seekWritable reported success but the follower still refuses writes: %v", err)
	}
}

// TestSeekWritableDroppedConnSweepsCurrentAddress: with the current
// connection down, the sweep must include the current address. Here only
// the current address (an orphaned follower) is promotable — the failover
// address follows a live primary and refuses via the split-brain guard —
// so the old start-at-the-next-address sweep fails outright.
func TestSeekWritableDroppedConnSweepsCurrentAddress(t *testing.T) {
	ctx := context.Background()
	cfg := farmer.DefaultConfig()

	orphan, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orphan.Close()
	oAddr, oStop := startServe(t, orphan, farmer.ServeConfig{Follower: true})
	defer oStop()

	linked, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer linked.Close()
	lAddr, lStop := startServe(t, linked, farmer.ServeConfig{Follower: true})
	defer lStop()

	primary, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{lAddr}})
	defer pStop()

	// The primary's replication link pins `linked` un-promotable; prove the
	// link is up by feeding through the primary once.
	pc, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.Feed(ctx, &trace.Record{File: 2}); err != nil {
		t.Fatal(err)
	}

	client, err := farmer.Dial(ctx, oAddr, farmer.WithFailover(lAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	client.DropConn()
	if err := client.SeekWritable(ctx); err != nil {
		t.Fatalf("seekWritable skipped the only promotable address (the current one): %v", err)
	}
	if err := rawFeed(t, oAddr); err != nil {
		t.Fatalf("current-address follower was not actually promoted: %v", err)
	}
	if err := rawFeed(t, lAddr); !errors.Is(err, farmer.ErrNotPrimary) {
		t.Fatalf("split-brain guard should have held on the linked follower: %v", err)
	}
}

// promotesSeen reads, over a raw connection, how many MsgPromote frames the
// server at addr has handled.
func promotesSeen(t *testing.T, addr string) uint64 {
	t.Helper()
	ctx := context.Background()
	c, err := rpc.DialWith(ctx, addr, rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.WireStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Type == rpc.MsgPromote {
			return s.Count
		}
	}
	return 0
}

// TestSeekWritablePicksUntimedPrimaryByEpoch: a daemon started without
// -lease-ttl still answers LeaseStatus with a real term — the primary leads
// epoch 1, its follower mirrors it — so one sweep finds the primary by
// asking, not by trial promotion: the linked follower (listed first) is
// never asked to promote, and the primary gets exactly the one idempotent
// Promote the never-success-without-a-Promote invariant demands.
func TestSeekWritablePicksUntimedPrimaryByEpoch(t *testing.T) {
	ctx := context.Background()
	cfg := farmer.DefaultConfig()
	follower, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()
	primary, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}})
	defer pStop()
	// The primary answers only once it has attached the follower and
	// announced its term, so this read is also the start barrier.
	if n := promotesSeen(t, pAddr); n != 0 {
		t.Fatalf("a fresh primary has seen %d promotion requests", n)
	}

	client, err := farmer.Dial(ctx, fAddr, farmer.WithFailover(pAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if info, err := client.LeaseStatus(ctx); err != nil || info.Epoch != 1 || info.Self {
		t.Fatalf("follower's view of the untimed term: %+v (err %v), want epoch 1 led by the primary", info, err)
	}
	// The follower refuses the write; the client's sweep reroutes it.
	if err := client.Feed(ctx, &trace.Record{File: 1}); err != nil {
		t.Fatalf("feed through a follower-first address list: %v", err)
	}
	if info, err := client.LeaseStatus(ctx); err != nil || info.Epoch != 1 || !info.Self {
		t.Fatalf("client settled on %+v (err %v), want the primary leading epoch 1", info, err)
	}
	if n := promotesSeen(t, fAddr); n != 0 {
		t.Errorf("the linked follower was sent %d promotion requests, want 0", n)
	}
	if n := promotesSeen(t, pAddr); n != 1 {
		t.Errorf("the primary was sent %d promotion requests, want exactly 1", n)
	}
}
