package replay

// The multi-tenant half of the replay harness's correctness claims: one
// farmerd serving many tenants must give each tenant exactly the model it
// would have mined alone.
//
//	(a) two tenants feeding interleaved through one daemon mine
//	    bit-identical state to their isolated sequential reference mines —
//	    tenant streams never bleed into each other (or into the default
//	    tenant);
//	(b) SIGKILLing a multi-tenant primary mid-trace preserves BOTH
//	    tenants on the promoted follower with zero acked-record loss;
//	(c) an unknown bearer token, an out-of-grant tenant and an over-budget
//	    tenant are all refused with the typed sentinels — without
//	    disturbing any other tenant's stream.

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// TestMultiTenantInterleavedBitIdentical is claim (a): tenants "alpha" and
// "beta" (different workload profiles) interleave batches through one
// multi-tenant farmerd alongside default-tenant traffic; every stream
// fingerprints identically to its isolated reference.
func TestMultiTenantInterleavedBitIdentical(t *testing.T) {
	trA := tracegen.HP(8000).MustGenerate()
	trB := tracegen.INS(8000).MustGenerate()
	trD := tracegen.RES(4000).MustGenerate()
	mc := core.DefaultConfig()
	refA := MineSequential(trA, mc)
	refB := MineSequential(trB, mc)
	refD := MineSequential(trD, mc)
	ctx := context.Background()

	def, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	addr, stop := startServeRole(t, def, farmer.ServeConfig{
		Tenants: &farmer.TenantsConfig{Dir: t.TempDir()},
	})
	defer stop()

	dial := func(opts ...farmer.DialOption) *farmer.RemoteMiner {
		m, err := farmer.Dial(ctx, addr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	cA := dial(farmer.WithTenant("alpha"))
	cB := dial(farmer.WithTenant("beta"))
	cD := dial()

	// Interleave: alpha, beta and the default tenant advance in lockstep
	// chunks over one shared daemon, so any cross-tenant bleed corrupts at
	// least one fingerprint.
	const chunk = 512
	feed := func(c *farmer.RemoteMiner, recs []trace.Record, lo int) int {
		if lo >= len(recs) {
			return lo
		}
		hi := min(lo+chunk, len(recs))
		if err := c.FeedBatch(ctx, recs[lo:hi]); err != nil {
			t.Fatalf("feed at %d: %v", lo, err)
		}
		return hi
	}
	a, b, d := 0, 0, 0
	for a < len(trA.Records) || b < len(trB.Records) || d < len(trD.Records) {
		a = feed(cA, trA.Records, a)
		b = feed(cB, trB.Records, b)
		d = feed(cD, trD.Records, d)
	}

	for _, tc := range []struct {
		name string
		c    *farmer.RemoteMiner
		n    int
		fc   int
		ref  uint64
	}{
		{"alpha", cA, len(trA.Records), trA.FileCount, refA},
		{"beta", cB, len(trB.Records), trB.FileCount, refB},
		{"default", cD, len(trD.Records), trD.FileCount, refD},
	} {
		st, err := tc.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fed != uint64(tc.n) {
			t.Fatalf("tenant %s fed %d, want %d", tc.name, st.Fed, tc.n)
		}
		if got := core.StateFingerprint(remoteLister{t, tc.c}, tc.fc); got != tc.ref {
			t.Fatalf("tenant %s fingerprint %#x != isolated reference %#x (streams bled)", tc.name, got, tc.ref)
		}
	}

	// The tenants listing sees all three live streams.
	ts, err := cD.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("tenants listing has %d entries, want 3: %+v", len(ts), ts)
	}
	if ts[0].Name != "" || ts[1].Name != "alpha" || ts[2].Name != "beta" {
		t.Fatalf("tenants listing order %q %q %q, want default,alpha,beta", ts[0].Name, ts[1].Name, ts[2].Name)
	}
}

// TestMultiTenantAuthAndBudgetTyped is claim (c): the edge refuses an
// unknown token, an out-of-grant tenant, an unauthenticated connection and
// an over-budget tenant with ErrUnauthorized / ErrTenantBudget — while an
// authorized neighbor tenant keeps feeding undisturbed.
func TestMultiTenantAuthAndBudgetTyped(t *testing.T) {
	ctx := context.Background()
	def, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	addr, stop := startServeRole(t, def, farmer.ServeConfig{
		AuthTokens: map[string][]string{
			"admin-secret": {"*"},
			"alpha-secret": {"alpha"},
		},
		Tenants: &farmer.TenantsConfig{
			Dir:    t.TempDir(),
			Budget: farmer.TenantBudget{MaxMemoryBytes: 1}, // any mined state is over
		},
	})
	defer stop()

	// Unknown token: refused at the hello, before any frame dispatches.
	if _, err := farmer.Dial(ctx, addr, farmer.WithToken("wrong")); !errors.Is(err, farmer.ErrUnauthorized) {
		t.Fatalf("unknown token: err %v, want ErrUnauthorized", err)
	}
	// Out-of-grant tenant: the token is real but not granted "beta".
	if _, err := farmer.Dial(ctx, addr, farmer.WithTenant("beta"), farmer.WithToken("alpha-secret")); !errors.Is(err, farmer.ErrUnauthorized) {
		t.Fatalf("out-of-grant tenant: err %v, want ErrUnauthorized", err)
	}
	// No token at all: the connection opens (no hello is sent) but the
	// first frame is refused — auth is mandatory once AuthTokens is set.
	anon, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	tr := tracegen.HP(3000).MustGenerate()
	if err := anon.Feed(ctx, &tr.Records[0]); !errors.Is(err, farmer.ErrUnauthorized) {
		t.Fatalf("unauthenticated feed: err %v, want ErrUnauthorized", err)
	}

	// The budgeted tenant is admitted while empty, then refused once its
	// model footprint clears MaxMemoryBytes=1 at a stride recheck.
	piggy, err := farmer.Dial(ctx, addr, farmer.WithTenant("piggy"), farmer.WithToken("admin-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer piggy.Close()
	var budgetErr error
	for i := 0; i < 10 && budgetErr == nil; i++ {
		budgetErr = piggy.FeedBatch(ctx, tr.Records)
	}
	if !errors.Is(budgetErr, farmer.ErrTenantBudget) {
		t.Fatalf("over-budget tenant: err %v, want ErrTenantBudget", budgetErr)
	}

	// The refusals above disturbed nobody: alpha still feeds and reads.
	alpha, err := farmer.Dial(ctx, addr, farmer.WithTenant("alpha"), farmer.WithToken("alpha-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	// Keep alpha under the shared budget's stride so its own feeds never
	// trip the footprint check: a single small batch.
	small := tr.Records[:64]
	if err := alpha.FeedBatch(ctx, small); err != nil {
		t.Fatalf("neighbor tenant disturbed: %v", err)
	}
	st, err := alpha.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(small)) {
		t.Fatalf("neighbor tenant fed %d, want %d", st.Fed, len(small))
	}
}

// TestMultiTenantFailoverReauth is claim (b) in-process plus the Dial
// re-auth satellite: a tenant-bound, token-authenticated client fails over
// from a killed multi-tenant primary to its follower; the redial
// re-authenticates and re-binds the tenant, no acked record is lost, and
// the tenant's final state matches the sequential reference.
func TestMultiTenantFailoverReauth(t *testing.T) {
	tr := tracegen.HP(20000).MustGenerate()
	trB := tracegen.INS(6000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	refB := MineSequential(trB, mc)
	ctx := context.Background()

	auth := map[string][]string{
		"admin-secret": {"*"},
		"alpha-secret": {"alpha"},
		"beta-secret":  {"beta"},
	}
	fDef, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fDef.Close()
	fAddr, fStop := startServeRole(t, fDef, farmer.ServeConfig{
		Follower:   true,
		AuthTokens: auth,
		Tenants:    &farmer.TenantsConfig{Dir: t.TempDir()},
	})
	defer fStop()

	pDef, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer pDef.Close()
	pAddr, pStop := startServeRole(t, pDef, farmer.ServeConfig{
		ReplicateTo:  []string{fAddr},
		ReplicaToken: "admin-secret",
		AuthTokens:   auth,
		Tenants:      &farmer.TenantsConfig{Dir: t.TempDir()},
		// A near-zero drain makes the stop a crash: connections are cut,
		// not drained — the in-process stand-in for SIGKILL.
		DrainTimeout: time.Millisecond,
	})

	alpha, err := farmer.Dial(ctx, pAddr,
		farmer.WithTenant("alpha"), farmer.WithToken("alpha-secret"), farmer.WithFailover(fAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	beta, err := farmer.Dial(ctx, pAddr,
		farmer.WithTenant("beta"), farmer.WithToken("beta-secret"), farmer.WithFailover(fAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()

	// Beta finishes its whole trace before the kill: a quiet tenant must
	// survive the failover intact even though no frame of its own is in
	// flight when the primary dies.
	const chunk = 512
	for lo := 0; lo < len(trB.Records); lo += chunk {
		hi := min(lo+chunk, len(trB.Records))
		if err := beta.FeedBatch(ctx, trB.Records[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	const killAt = 10000
	killed := false
	acked := uint64(0)
	lo := 0
	for lo < len(tr.Records) {
		if !killed && lo >= killAt {
			pStop() // crash the primary; the drain error is the point
			killed = true
		}
		hi := min(lo+chunk, len(tr.Records))
		err := alpha.FeedBatch(ctx, tr.Records[lo:hi])
		if err == nil {
			acked = uint64(hi)
			lo = hi
			continue
		}
		if !errors.Is(err, farmer.ErrDisconnected) {
			t.Fatalf("feed failed with %v at record %d", err, lo)
		}
		// In-doubt batch: the redial re-authenticated with alpha-secret
		// and re-bound tenant alpha, or this Stats call could not succeed.
		st, serr := alpha.Stats(ctx)
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

	st, err := alpha.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("survivor fed %d alpha records, want %d", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, alpha}, tr.FileCount); got != ref {
		t.Fatalf("promoted alpha fingerprint %#x != sequential %#x", got, ref)
	}
	// The quiet tenant's stream survived whole as well (reads go through
	// the same failed-over, re-authenticated path).
	stB, err := beta.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Fed != uint64(len(trB.Records)) {
		t.Fatalf("survivor fed %d beta records, want %d", stB.Fed, len(trB.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, beta}, trB.FileCount); got != refB {
		t.Fatalf("promoted beta fingerprint %#x != sequential %#x", got, refB)
	}
}

// TestMultiTenantFailoverSIGKILL is claim (b) at the process level: real
// multi-tenant farmerd binaries, a real SIGKILL. Two tenants feed
// interleaved through the primary; the kill lands while both streams are
// in flight; both clients fail over and finish; both tenants end
// bit-identical to their sequential references with zero acked-record
// loss.
func TestMultiTenantFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "farmerd")
	build := exec.Command("go", "build", "-o", bin, "farmer/cmd/farmerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building farmerd: %v\n%s", err, out)
	}

	trA := tracegen.HP(15000).MustGenerate()
	trB := tracegen.INS(15000).MustGenerate()
	mc := core.DefaultConfig()
	refA := MineSequential(trA, mc)
	refB := MineSequential(trB, mc)
	ctx := context.Background()

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2", "-tenants-dir", t.TempDir())
	defer follower.stop()
	primary := startFarmerdProc(t, bin, "-shards", "2", "-tenants-dir", t.TempDir(),
		"-replicate-to", follower.addr)
	killed := false
	defer func() {
		if !killed {
			primary.sigkill()
		}
	}()

	dialTenant := func(tenant string) *farmer.RemoteMiner {
		m, err := farmer.Dial(ctx, primary.addr,
			farmer.WithTenant(tenant), farmer.WithFailover(follower.addr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	cA := dialTenant("alpha")
	cB := dialTenant("beta")

	// One feeder per tenant; each drives its own stream with the standard
	// failover loop (resume from the survivor's Fed count on a cut). from/to
	// index the tenant's full trace, so a post-failover resume (lo = Fed)
	// stays in the stream's own coordinates.
	feedRange := func(c *farmer.RemoteMiner, recs []trace.Record, from, to, killAt int) {
		const chunk = 256
		acked := uint64(from)
		lo := from
		for lo < to {
			if killAt > 0 && !killed && lo >= killAt {
				primary.sigkill()
				killed = true
			}
			hi := min(lo+chunk, to)
			cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			err := c.FeedBatch(cctx, recs[lo:hi])
			cancel()
			if err == nil {
				acked = uint64(hi)
				lo = hi
				continue
			}
			if !errors.Is(err, farmer.ErrDisconnected) {
				t.Fatalf("feed failed with %v at record %d", err, lo)
			}
			st, serr := c.Stats(ctx)
			if serr != nil {
				t.Fatalf("failover stats: %v", serr)
			}
			if st.Fed < acked {
				t.Fatalf("ACKED RECORD LOST: survivor holds %d records, %d were acked", st.Fed, acked)
			}
			lo = int(st.Fed)
		}
	}
	// Interleave coarsely: half of beta, then alpha end to end (the kill
	// fires mid-alpha, after beta's first half replicated), then beta's
	// rest across the failover — beta's first post-kill write re-binds and
	// re-promotes its own tenant on the follower.
	half := len(trB.Records) / 2
	feedRange(cB, trB.Records, 0, half, 0)
	feedRange(cA, trA.Records, 0, len(trA.Records), len(trA.Records)/3)
	if !killed {
		t.Fatal("primary was never killed")
	}
	st, err := cB.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed < uint64(half) {
		t.Fatalf("ACKED RECORD LOST: beta survivor holds %d records, %d were acked", st.Fed, half)
	}
	feedRange(cB, trB.Records, int(st.Fed), len(trB.Records), 0)

	for _, tc := range []struct {
		name string
		c    *farmer.RemoteMiner
		n    int
		fc   int
		ref  uint64
	}{
		{"alpha", cA, len(trA.Records), trA.FileCount, refA},
		{"beta", cB, len(trB.Records), trB.FileCount, refB},
	} {
		st, err := tc.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fed != uint64(tc.n) {
			t.Fatalf("tenant %s: survivor fed %d, want %d", tc.name, st.Fed, tc.n)
		}
		if got := core.StateFingerprint(remoteLister{t, tc.c}, tc.fc); got != tc.ref {
			t.Fatalf("tenant %s: promoted fingerprint %#x != sequential %#x", tc.name, got, tc.ref)
		}
	}
}
