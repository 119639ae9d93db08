package farmer_test

// Multi-tenant edge cases of Serve's Registry: admission control on the
// event path, and a first touch that must not stall the daemon.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"farmer"
	"farmer/internal/partition"
	"farmer/internal/rpc"
)

// TestTenantBudgetCoversApplyEvents: an over-budget named tenant's
// MsgApplyEvents batches are refused with ErrTenantBudget like its record
// feeds — the model stops growing through event frames too — while its
// neighbour keeps feeding.
func TestTenantBudgetCoversApplyEvents(t *testing.T) {
	ctx := context.Background()
	def, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	addr, stop := startServe(t, def, farmer.ServeConfig{
		Tenants: &farmer.TenantsConfig{Budget: farmer.TenantBudget{MaxMemoryBytes: 1}}, // any mined state is over
	})
	defer stop()

	tr, err := farmer.Generate(farmer.HP(6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.DefaultConfig()
	disp := partition.NewDispatcher(partition.Config{Owners: 1, Mask: cfg.Mask, PathAlg: cfg.PathAlg, Graph: cfg.Graph})
	var evs []partition.Event
	for i := range tr.Records {
		disp.Dispatch(&tr.Records[i], func(_ int, ev partition.Event) { evs = append(evs, ev) })
	}

	c, err := rpc.DialWith(ctx, addr, rpc.DialOptions{Tenant: "piggy"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	piggy := rpc.NewNetOwner(c, 1)
	// The tenant is admitted while empty; the footprint is rechecked every
	// 4096 events, and this stream is several times that.
	var budgetErr error
	for lo := 0; lo < len(evs) && budgetErr == nil; lo += 512 {
		piggy.ApplyEvents(evs[lo:min(lo+512, len(evs))])
		budgetErr = piggy.Flush()
	}
	if !errors.Is(budgetErr, farmer.ErrTenantBudget) {
		t.Fatalf("over-budget tenant's event stream: err %v, want ErrTenantBudget", budgetErr)
	}
	// Once over, every further batch is refused and mines nothing.
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rpc.DialWith(ctx, addr, rpc.DialOptions{Tenant: "piggy"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	again := rpc.NewNetOwner(c2, 1)
	again.ApplyEvents(evs[:512])
	if err := again.Flush(); !errors.Is(err, farmer.ErrTenantBudget) {
		t.Fatalf("second event stream of the over-budget tenant: err %v, want ErrTenantBudget", err)
	}
	if after, err := c2.Stats(ctx); err != nil || after.MemoryBytes != before.MemoryBytes {
		t.Fatalf("refused events still grew the model: %d -> %d bytes (%v)", before.MemoryBytes, after.MemoryBytes, err)
	}

	// The neighbour is undisturbed (one small batch stays under its own
	// recheck stride, as in TestMultiTenantAuthAndBudgetTyped).
	alpha, err := farmer.Dial(ctx, addr, farmer.WithTenant("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	if err := alpha.FeedBatch(ctx, tr.Records[:64]); err != nil {
		t.Fatalf("neighbour tenant disturbed: %v", err)
	}
	if st, err := alpha.Stats(ctx); err != nil || st.Fed != 64 {
		t.Fatalf("neighbour tenant fed %d (%v), want 64", st.Fed, err)
	}
}

// blackholeProxy forwards TCP connections to a backend until told to stop
// answering: after hang(), it still accepts, and never reads or writes.
type blackholeProxy struct {
	lis     net.Listener
	backend string
	hung    atomic.Bool
	swallow chan struct{} // one send per connection accepted while hung

	mu    sync.Mutex
	conns []net.Conn
}

func newBlackholeProxy(t *testing.T, backend string) *blackholeProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blackholeProxy{lis: lis, backend: backend, swallow: make(chan struct{}, 16)}
	go p.accept()
	return p
}

func (p *blackholeProxy) addr() string { return p.lis.Addr().String() }
func (p *blackholeProxy) hang()        { p.hung.Store(true) }

func (p *blackholeProxy) keep(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *blackholeProxy) accept() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		p.keep(c)
		if p.hung.Load() {
			p.swallow <- struct{}{}
			continue
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.keep(up)
		go func() { _, _ = io.Copy(up, c); up.Close() }()
		go func() { _, _ = io.Copy(c, up); c.Close() }()
	}
}

func (p *blackholeProxy) close() {
	p.lis.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// TestTenantOpenDoesNotStallDaemon: a named tenant's first touch attaches
// its replication stream while holding the registry lock every frame takes.
// A follower address that accepts and never answers used to hold that lock —
// and with it every tenant, the default one included — forever; each attach
// is now bounded by ReplicaAckTimeout, after which the tenant opens without
// the follower and says so.
func TestTenantOpenDoesNotStallDaemon(t *testing.T) {
	ctx := context.Background()
	follower, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()
	proxy := newBlackholeProxy(t, fAddr)
	defer proxy.close()

	primary, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	const bound = 500 * time.Millisecond
	var plog serveLog
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{
		ReplicateTo:       []string{proxy.addr()},
		ReplicaAckTimeout: bound,
		Tenants:           &farmer.TenantsConfig{},
		Logf:              plog.logf,
		DrainTimeout:      time.Second,
	})
	defer pStop()
	def, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if err := def.Feed(ctx, &farmer.Record{File: 1, Path: "/a/b"}); err != nil {
		t.Fatalf("default tenant through the live follower: %v", err)
	}

	proxy.hang()
	opened := make(chan error, 1)
	go func() {
		alpha, err := farmer.Dial(ctx, pAddr, farmer.WithTenant("alpha"))
		if err != nil {
			opened <- err
			return
		}
		defer alpha.Close()
		opened <- alpha.Feed(ctx, &farmer.Record{File: 2, Path: "/a/c"})
	}()
	select {
	case <-proxy.swallow: // the tenant's attach is now talking to nobody
	case <-time.After(10 * time.Second):
		t.Fatal("the tenant's first touch never dialed its follower")
	}
	rctx, cancel := context.WithTimeout(ctx, 10*bound)
	defer cancel()
	if _, err := def.Predict(rctx, 1, 4); err != nil {
		t.Fatalf("default-tenant Predict stalled behind a neighbour's first touch: %v", err)
	}
	select {
	case err := <-opened:
		if err != nil {
			t.Fatalf("tenant did not open without its follower: %v", err)
		}
	case <-time.After(20 * bound):
		t.Fatal("tenant open still blocked long after the attach bound")
	}
	if !plog.contains(`tenant "alpha": follower ` + proxy.addr() + ` unreachable at open`) {
		t.Fatalf("no unreachable-follower notice in the log: %q", plog.all())
	}
}
