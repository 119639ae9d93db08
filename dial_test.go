package farmer_test

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer"
)

// serveLoopback runs farmer.Serve for a miner on a loopback listener.
func serveLoopback(t *testing.T, m *farmer.LocalMiner, cfg farmer.ServeConfig) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- farmer.Serve(ctx, lis, m, cfg) }()
	return lis.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestRemoteMinerFullSurface drives every Miner method through Dial against
// a served miner with a store, comparing against the server's local state.
func TestRemoteMinerFullSurface(t *testing.T) {
	dir := t.TempDir()
	tr, err := farmer.Generate(farmer.HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	server, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(2),
		farmer.WithStore(filepath.Join(dir, "served.wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := serveLoopback(t, server, farmer.ServeConfig{})
	defer stop()

	ctx := context.Background()
	m, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if rtt, err := m.Ping(ctx); err != nil || rtt <= 0 {
		t.Fatalf("ping: rtt=%v err=%v", rtt, err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FeedBatch(ctx, tr.Records[50:]); err != nil {
		t.Fatal(err)
	}
	st, err := m.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := server.Stats(ctx); st != want {
		t.Fatalf("remote stats %+v != local %+v", st, want)
	}
	for f := 0; f < tr.FileCount; f += 7 {
		want := server.CorrelatorList(farmer.FileID(f))
		got, err := m.CorrelatorList(ctx, farmer.FileID(f))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("file %d: remote list differs", f)
		}
		wantP, _ := server.Predict(ctx, farmer.FileID(f), 3)
		gotP, err := m.Predict(ctx, farmer.FileID(f), 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantP, gotP) {
			t.Fatalf("file %d: remote prediction differs", f)
		}
	}

	// Save persists remotely; Load on the already-fed server must be
	// refused (it would merge the model with itself and double-count Fed).
	if err := m.Save(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(ctx); err == nil || !strings.Contains(err.Error(), "already ingested") {
		t.Fatalf("remote Load on a fed miner: %v", err)
	}
	if st2, err := m.Stats(ctx); err != nil || st2.Fed != uint64(len(tr.Records)) {
		t.Fatalf("fed counter disturbed by refused load: %+v err=%v", st2, err)
	}
}

// TestRemoteSaveWithoutStore: the remote error carries the server's
// ErrNoStore text and the connection survives.
func TestRemoteSaveWithoutStore(t *testing.T) {
	server, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := serveLoopback(t, server, farmer.ServeConfig{})
	defer stop()
	m, err := farmer.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Save(context.Background())
	if err == nil || !strings.Contains(err.Error(), farmer.ErrNoStore.Error()) {
		t.Fatalf("remote Save without store: %v", err)
	}
	if _, err := m.Ping(context.Background()); err != nil {
		t.Fatalf("connection dead after remote error: %v", err)
	}
}

// TestServeCheckpointTicker: a served miner with a checkpoint interval
// persists without any client asking.
func TestServeCheckpointTicker(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "ckpt.wal")
	tr, err := farmer.Generate(farmer.HP(2000))
	if err != nil {
		t.Fatal(err)
	}
	server, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(2), farmer.WithStore(wal))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := serveLoopback(t, server, farmer.ServeConfig{Checkpoint: 20 * time.Millisecond})
	m, err := farmer.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Fed == uint64(len(tr.Records)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never ingested the batch")
		}
	}
	time.Sleep(60 * time.Millisecond) // at least one ticker checkpoint
	m.Close()
	stop()

	// The drain wrote a final checkpoint; a fresh miner loads it.
	m2, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithStore(wal), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st, err := m2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("checkpointed fed %d, want %d", st.Fed, len(tr.Records))
	}
}

// TestAckWindowAtMostOneIsSynchronous: a client's Feed is synchronous — an
// error the server returns surfaces from the Feed that caused it.
func TestAckWindowAtMostOneIsSynchronous(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(9000))
	if err != nil {
		t.Fatal(err)
	}
	server, err := farmer.Open(farmer.ConfigFor(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := serveLoopback(t, server, farmer.ServeConfig{
		Tenants: &farmer.TenantsConfig{Budget: farmer.TenantBudget{MaxMemoryBytes: 1}},
	})
	defer stop()
	ctx := context.Background()

	// Put tenant "t" over its budget: the first batch is admitted against an
	// empty model, the next one is checked against what the first mined.
	fill, err := farmer.Dial(ctx, addr, farmer.WithTenant("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer fill.Close()
	if err := fill.FeedBatch(ctx, tr.Records[:4096]); err != nil {
		t.Fatal(err)
	}
	if err := fill.FeedBatch(ctx, tr.Records[4096:8192]); !errors.Is(err, farmer.ErrTenantBudget) {
		t.Fatalf("second batch: %v, want ErrTenantBudget", err)
	}

	m, err := farmer.Dial(ctx, addr, farmer.WithTenant("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Feed(ctx, &tr.Records[8192]); !errors.Is(err, farmer.ErrTenantBudget) {
		t.Errorf("Feed = %v, want the server's ErrTenantBudget from Feed itself", err)
	}
}

// swallowProxy forwards TCP connections to a backend. The first one it
// accepts carries requests but discards every answer until sever closes it;
// every later one is forwarded both ways.
type swallowProxy struct {
	lis     net.Listener
	backend string

	first chan []net.Conn // the swallowing connection's two ends, once accepted

	mu    sync.Mutex
	conns []net.Conn
}

func newSwallowProxy(t *testing.T, backend string) *swallowProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &swallowProxy{lis: lis, backend: backend, first: make(chan []net.Conn, 1)}
	go p.accept()
	t.Cleanup(func() {
		lis.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, c := range p.conns {
			c.Close()
		}
	})
	return p
}

func (p *swallowProxy) accept() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		back := io.Writer(c)
		if len(p.conns) == 0 {
			back = io.Discard
			p.first <- []net.Conn{c, up}
		}
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go func() { _, _ = io.Copy(up, c); up.Close() }()
		go func() { _, _ = io.Copy(back, up); c.Close() }()
	}
}

// sever closes the swallowing connection.
func (p *swallowProxy) sever() {
	for _, c := range <-p.first {
		c.Close()
	}
}

// TestReplacedAckWindowReportsItsFrames: a writer's connection dies with a
// Feed's ack lost, after the server mined the record. The Feed reports the
// record in doubt (ErrDisconnected), a read redials, and the writer resumes
// from Stats().Fed to a complete stream.
func TestReplacedAckWindowReportsItsFrames(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(300))
	if err != nil {
		t.Fatal(err)
	}
	server, err := farmer.Open(farmer.ConfigFor(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := serveLoopback(t, server, farmer.ServeConfig{})
	defer stop()
	proxy := newSwallowProxy(t, addr)
	ctx := context.Background()
	m, err := farmer.Dial(ctx, proxy.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	fed := make(chan error, 1)
	go func() { fed <- m.Feed(ctx, &tr.Records[0]) }() // its ack is swallowed
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := server.Stats(ctx); st.Fed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never mined the record")
		}
	}
	proxy.sever()
	if err := <-fed; !errors.Is(err, farmer.ErrDisconnected) {
		t.Fatalf("Feed whose ack was lost = %v, want ErrDisconnected", err)
	}

	st, err := m.Stats(ctx) // the read redials
	if err != nil {
		t.Fatalf("read did not reconnect: %v", err)
	}
	if st.Fed != 1 {
		t.Fatalf("resume point %d, want 1: the server mined the record whose ack was lost", st.Fed)
	}
	for i := st.Fed; i < uint64(len(tr.Records)); i++ {
		if err := m.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatalf("resumed record %d: %v", i, err)
		}
	}
	if st, err := m.Stats(ctx); err != nil || st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("resumed stream fed %d (%v), want %d", st.Fed, err, len(tr.Records))
	}
}
