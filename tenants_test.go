package farmer_test

// Multi-tenant edge cases of Serve's Registry: a first touch that must not
// stall the daemon.

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"farmer"
)

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
// is now bounded by the replica ack timeout (30s, shortened here), after
// which the tenant opens without the follower and says so.
func TestTenantOpenDoesNotStallDaemon(t *testing.T) {
	ctx := context.Background()
	// Shortened before any daemon starts (every backend reads it when it is
	// built) and restored after the last one stops.
	const bound = 500 * time.Millisecond
	defer farmer.SetReplicaAckTimeout(bound)()
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
	var plog serveLog
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{
		ReplicateTo:  []string{proxy.addr()},
		Tenants:      &farmer.TenantsConfig{},
		Logf:         plog.logf,
		DrainTimeout: time.Second,
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
