package replay

// Process-level lease proofs (ISSUE 10 acceptance criteria): real farmerd
// binaries, a real SIGKILL, a real network partition.
//
//	(a) TestElectionSIGKILL — kill the leaseholding primary; the follower
//	    self-elects and serves writes within 2x the lease TTL with no
//	    manual promotion anywhere.
//	(b) TestHandoffSIGKILLZeroAckedLoss — SIGKILL the source while a
//	    `farmerctl rebalance`-shaped handoff is in flight and feeds race
//	    it; zero acked records are lost either way the race lands.
//	(c) TestSplitBrainResolvesToHigherEpoch — partition a replicated pair
//	    (the primary's stream runs through a severable proxy); the primary
//	    lapses and refuses writes typed, the follower elects the next
//	    epoch, and the cluster converges on the higher epoch with zero
//	    acked loss.
//
// CI runs all three in the failover replay smoke job.

import (
	"context"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// procLeaseTTL is the lease TTL the subprocess tests run at: long enough
// that renewals never flap on a loaded CI runner, short enough that the
// 2xTTL election bound keeps the tests quick.
const procLeaseTTL = 2 * time.Second

func buildFarmerd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "farmerd")
	build := exec.Command("go", "build", "-o", bin, "farmer/cmd/farmerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building farmerd: %v\n%s", err, out)
	}
	return bin
}

// feedResuming drives the in-doubt resume loop shared by the lease process
// tests: feed tr.Records[lo:] in chunks, and on any failure re-read the
// survivor's position and resume from there, asserting no acked record was
// lost. Transient failures (a follower that has not elected itself yet) are
// retried until deadline.
func feedResuming(t *testing.T, client *farmer.RemoteMiner, tr *trace.Trace, lo int, acked uint64, deadline time.Time) uint64 {
	t.Helper()
	const chunk = 256
	for lo < len(tr.Records) {
		hi := min(lo+chunk, len(tr.Records))
		cctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := client.FeedBatch(cctx, tr.Records[lo:hi])
		cancel()
		if err == nil {
			acked = uint64(hi)
			lo = hi
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("no writable daemon before deadline; last feed error: %v", err)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, serr := client.Stats(sctx)
		scancel()
		if serr != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if st.Fed < acked {
			t.Fatalf("ACKED RECORD LOST: survivor holds %d records, %d were acked", st.Fed, acked)
		}
		lo = int(st.Fed)
		time.Sleep(100 * time.Millisecond)
	}
	return acked
}

// waitLeaseObserved blocks until the daemon at addr has observed a lease
// term (epoch >= 1) — the precondition for both transfer adoption and
// self-election. The leader announces its term when a follower attaches,
// so this resolves within one round trip in practice.
func waitLeaseObserved(t *testing.T, addr string) {
	t.Helper()
	ctx := context.Background()
	probe, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	start := time.Now()
	for {
		pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
		info, perr := probe.LeaseStatus(pctx)
		pcancel()
		if perr == nil && info.Epoch >= 1 {
			return
		}
		if time.Since(start) > 2*procLeaseTTL {
			t.Fatalf("%s never observed a lease term (status %+v, err %v)", addr, info, perr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestElectionSIGKILL: a leaseholding primary->follower pair; SIGKILL the
// primary and measure how long the follower takes to self-elect. The only
// reads in the window are lease status polls — no Promote travels, so a
// writable follower proves autonomous election, inside the 2xTTL bound.
func TestElectionSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildFarmerd(t)
	tr := tracegen.HP(30000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()
	ttlArg := procLeaseTTL.String()

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2", "-lease-ttl", ttlArg)
	defer follower.stop()
	primary := startFarmerdProc(t, bin, "-shards", "2",
		"-replicate-to", follower.addr, "-lease-ttl", ttlArg)
	killed := false
	defer func() {
		if !killed {
			primary.sigkill()
		}
	}()

	client, err := farmer.Dial(ctx, primary.addr, farmer.WithFailover(follower.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Feed a third of the trace, fully acked, then kill the leader.
	third := len(tr.Records) / 3
	const chunk = 256
	for lo := 0; lo < third; lo += chunk {
		if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+chunk, third)]); err != nil {
			t.Fatalf("pre-kill feed at %d: %v", lo, err)
		}
	}
	waitLeaseObserved(t, follower.addr)
	primary.sigkill()
	killed = true
	killedAt := time.Now()

	// Poll the follower's lease status (read-only — nothing here promotes)
	// until it reports itself leader.
	probe, err := farmer.Dial(ctx, follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	var elected time.Duration
	for {
		pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
		info, perr := probe.LeaseStatus(pctx)
		pcancel()
		if perr == nil && info.Self {
			elected = time.Since(killedAt)
			if info.Epoch < 2 {
				t.Fatalf("follower leads at epoch %d, want an election-won epoch >= 2", info.Epoch)
			}
			break
		}
		if time.Since(killedAt) > 4*procLeaseTTL {
			t.Fatalf("follower never self-elected (last status %+v, err %v)", info, perr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if elected > 2*procLeaseTTL {
		t.Fatalf("election took %v, want <= 2x the %v TTL", elected, procLeaseTTL)
	}
	t.Logf("follower self-elected %v after the SIGKILL", elected)

	// Finish the trace through the original client: zero acked loss, final
	// state bit-identical to the sequential reference.
	acked := feedResuming(t, client, tr, third, uint64(third), time.Now().Add(60*time.Second))
	if acked != uint64(len(tr.Records)) {
		t.Fatalf("acked %d of %d records", acked, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, client}, tr.FileCount); got != ref {
		t.Fatalf("elected follower fingerprint %#x != sequential %#x", got, ref)
	}
}

// TestHandoffSIGKILLZeroAckedLoss: SIGKILL the source daemon the instant a
// live handoff is fired, while batches race it. Whichever way the race
// lands — the transfer grant beat the kill, or the follower's own election
// picks up after the TTL — every acked record survives, because acks always
// waited for the follower and the transfer grant rides FIFO behind them.
func TestHandoffSIGKILLZeroAckedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildFarmerd(t)
	tr := tracegen.HP(30000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()
	ttlArg := procLeaseTTL.String()

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2", "-lease-ttl", ttlArg)
	defer follower.stop()
	primary := startFarmerdProc(t, bin, "-shards", "2",
		"-replicate-to", follower.addr, "-lease-ttl", ttlArg)
	killed := false
	defer func() {
		if !killed {
			primary.sigkill()
		}
	}()

	client, err := farmer.Dial(ctx, primary.addr, farmer.WithFailover(follower.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	third := len(tr.Records) / 3
	const chunk = 256
	for lo := 0; lo < third; lo += chunk {
		if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+chunk, third)]); err != nil {
			t.Fatalf("pre-handoff feed at %d: %v", lo, err)
		}
	}

	waitLeaseObserved(t, follower.addr)

	// Fire the handoff from a second connection and SIGKILL the source
	// without waiting for the result: the kill lands mid-handoff.
	handoffStarted := make(chan struct{})
	go func() {
		hctx, hcancel := context.WithTimeout(ctx, 30*time.Second)
		defer hcancel()
		if hc, err := farmer.Dial(hctx, primary.addr); err == nil {
			close(handoffStarted)
			_ = hc.Handoff(hctx, follower.addr) // racing the SIGKILL: in doubt by design
			hc.Close()
		} else {
			close(handoffStarted)
		}
	}()
	<-handoffStarted
	primary.sigkill()
	killed = true

	acked := feedResuming(t, client, tr, third, uint64(third), time.Now().Add(60*time.Second))
	if acked != uint64(len(tr.Records)) {
		t.Fatalf("acked %d of %d records", acked, len(tr.Records))
	}

	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	st, err := client.Stats(sctx)
	scancel()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("survivor fed %d, want %d", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, client}, tr.FileCount); got != ref {
		t.Fatalf("survivor fingerprint %#x != sequential %#x", got, ref)
	}
	ictx, icancel := context.WithTimeout(ctx, 10*time.Second)
	info, err := client.LeaseStatus(ictx)
	icancel()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Self || info.Epoch < 2 {
		t.Fatalf("survivor lease %+v, want it leading at an epoch >= 2", info)
	}
}

// tcpProxy is a severable TCP relay: the primary replicates THROUGH it, so
// closing it partitions the pair without killing either process.
type tcpProxy struct {
	lis    net.Listener
	target string

	mu     sync.Mutex
	conns  []net.Conn
	downed bool
}

func startProxy(t *testing.T, target string) *tcpProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tcpProxy{lis: lis, target: target}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			d, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			if p.downed {
				p.mu.Unlock()
				c.Close()
				d.Close()
				continue
			}
			p.conns = append(p.conns, c, d)
			p.mu.Unlock()
			go func() { io.Copy(d, c); d.Close() }()
			go func() { io.Copy(c, d); c.Close() }()
		}
	}()
	return p
}

// sever cuts the partition: no new connections, every relayed one closed.
func (p *tcpProxy) sever() {
	p.mu.Lock()
	p.downed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.lis.Close()
	for _, c := range conns {
		c.Close()
	}
}

// TestSplitBrainResolvesToHigherEpoch: partition a leaseholding pair by
// severing the proxy the replication stream runs through. The primary loses
// its renewal quorum and LAPSES — refusing writes typed, even though it is
// perfectly reachable — while the follower elects epoch 2 and takes the
// traffic. Safety beats availability on the minority side; zero acked
// records are lost; the cluster converges on the higher epoch.
func TestSplitBrainResolvesToHigherEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildFarmerd(t)
	tr := tracegen.HP(30000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()
	ttlArg := procLeaseTTL.String()

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2", "-lease-ttl", ttlArg)
	defer follower.stop()
	proxy := startProxy(t, follower.addr)
	primary := startFarmerdProc(t, bin, "-shards", "2",
		"-replicate-to", proxy.lis.Addr().String(), "-lease-ttl", ttlArg)
	defer primary.stop()

	client, err := farmer.Dial(ctx, primary.addr, farmer.WithFailover(follower.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	third := len(tr.Records) / 3
	const chunk = 256
	for lo := 0; lo < third; lo += chunk {
		if err := client.FeedBatch(ctx, tr.Records[lo:min(lo+chunk, third)]); err != nil {
			t.Fatalf("pre-partition feed at %d: %v", lo, err)
		}
	}

	waitLeaseObserved(t, follower.addr)
	proxy.sever()
	severedAt := time.Now()

	// The reachable-but-partitioned primary must start refusing writes
	// typed within ~one TTL: renewal quorum is gone, so its lease lapses.
	pc, err := farmer.Dial(ctx, primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
		info, perr := pc.LeaseStatus(pctx)
		pcancel()
		if perr == nil && !info.Self {
			break // lapsed or deposed: no longer claims the lease
		}
		if time.Since(severedAt) > 4*procLeaseTTL {
			t.Fatalf("partitioned primary still claims the lease after %v (status %+v, err %v)",
				time.Since(severedAt), info, perr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	pc.Close()
	t.Logf("partitioned primary lapsed %v after severing", time.Since(severedAt))

	// The follower self-elects the higher epoch across the partition.
	probe, err := farmer.Dial(ctx, follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	for {
		pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
		info, perr := probe.LeaseStatus(pctx)
		pcancel()
		if perr == nil && info.Self && info.Epoch >= 2 {
			t.Logf("follower leads at epoch %d, %v after severing", info.Epoch, time.Since(severedAt))
			break
		}
		if time.Since(severedAt) > 4*procLeaseTTL {
			t.Fatalf("follower never took the higher epoch (status %+v, err %v)", info, perr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Finish the trace: the client abandons the lapsed primary for the
	// elected follower with zero acked loss and no double-mining.
	acked := feedResuming(t, client, tr, third, uint64(third), time.Now().Add(60*time.Second))
	if acked != uint64(len(tr.Records)) {
		t.Fatalf("acked %d of %d records", acked, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, client}, tr.FileCount); got != ref {
		t.Fatalf("surviving side fingerprint %#x != sequential %#x", got, ref)
	}
	ictx, icancel := context.WithTimeout(ctx, 10*time.Second)
	info, err := client.LeaseStatus(ictx)
	icancel()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Self || info.Epoch < 2 {
		t.Fatalf("writes settled on %+v, want the epoch >= 2 leader", info)
	}
}
