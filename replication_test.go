package farmer_test

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer"
)

// startServe runs farmer.Serve on a loopback listener and returns the
// address, a hard-stop (cancel and wait, tolerating errors — the "crash"
// shape) and a channel carrying Serve's result.
func startServe(t *testing.T, m *farmer.LocalMiner, cfg farmer.ServeConfig) (addr string, stop func() error) {
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
			t.Fatal("serve did not drain")
			return nil
		}
	}
}

// TestFollowerLifecycle: a follower serves reads and refuses writes with
// ErrNotPrimary while its primary is alive — including refusing promotion —
// then promotes and accepts writes once the primary is gone.
func TestFollowerLifecycle(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(4000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()

	follower, err := farmer.Open(cfg, farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	primary, err := farmer.Open(cfg, farmer.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}})

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records[:2000]); err != nil {
		t.Fatal(err)
	}

	// Direct writes to the follower are refused with the typed error; reads
	// are served from the replicated state.
	fclient, err := farmer.Dial(ctx, fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fclient.Close()
	if err := fclient.Feed(ctx, &tr.Records[0]); !errors.Is(err, farmer.ErrNotPrimary) {
		t.Fatalf("follower accepted a write while primary is alive: %v", err)
	}
	st, err := fclient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != 2000 {
		t.Fatalf("follower replicated %d records, want 2000", st.Fed)
	}

	// Kill the primary; the follower's link drops, and a failover client
	// promotes it and finishes the stream.
	if err := pStop(); err != nil {
		t.Fatalf("primary stop: %v", err)
	}
	if err := fclient.Feed(ctx, &tr.Records[2000]); err != nil {
		t.Fatalf("write to promoted follower: %v", err)
	}
	if st, err = fclient.Stats(ctx); err != nil || st.Fed != 2001 {
		t.Fatalf("promoted follower fed %d (err %v), want 2001", st.Fed, err)
	}
}

// TestPromotionRefusedWhileLinked is the split-brain guard in isolation: a
// single-address client pointed at a follower whose primary link is live
// gets ErrNotPrimary even through the failover path (which tries to
// promote), and the follower stays read-only.
func TestPromotionRefusedWhileLinked(t *testing.T) {
	cfg := farmer.DefaultConfig()
	ctx := context.Background()
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
	var attached sync.WaitGroup
	attached.Add(1)
	logf := func(format string, args ...any) {
		if strings.Contains(format, "attached") {
			attached.Done()
		}
	}
	_, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}, Logf: logf})
	defer pStop()
	// The guard being tested holds while the primary's link is LIVE — wait
	// out the bootstrap window (a never-attached follower is promotable by
	// design).
	attached.Wait()

	client, err := farmer.Dial(ctx, fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	r := farmer.Record{File: 1, Path: "/x"}
	if err := client.Feed(ctx, &r); !errors.Is(err, farmer.ErrNotPrimary) {
		t.Fatalf("want ErrNotPrimary through the failover path, got %v", err)
	}
}

// relay is a one-connection TCP proxy the transient-fault test can sever
// without touching the server — the failure mode that used to wedge the
// old single-connection client permanently.
type relay struct {
	lis  net.Listener
	dst  string
	mu   sync.Mutex
	open []net.Conn
}

func newRelay(t *testing.T, dst string) *relay {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{lis: lis, dst: dst}
	go r.accept()
	return r
}

func (r *relay) accept() {
	for {
		c, err := r.lis.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.dst)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.open = append(r.open, c, up)
		r.mu.Unlock()
		go func() { io.Copy(up, c); up.Close() }()
		go func() { io.Copy(c, up); c.Close() }()
	}
}

// sever closes every live proxied connection (but keeps accepting new
// ones) — a transient network fault.
func (r *relay) sever() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.open {
		c.Close()
	}
	r.open = nil
}

func (r *relay) Close() { r.lis.Close(); r.sever() }

// TestDialReconnectsAfterTransientError: the bugfix proper. A connection
// fault mid-stream used to poison the client forever (every later call
// returned the stale transport error); the failover client must redial the
// same address and complete the stream against the same server.
func TestDialReconnectsAfterTransientError(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()
	server, err := farmer.Open(cfg, farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addr, stop := startServe(t, server, farmer.ServeConfig{})
	defer stop()

	proxy := newRelay(t, addr)
	defer proxy.Close()

	client, err := farmer.Dial(ctx, proxy.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records[:1000]); err != nil {
		t.Fatal(err)
	}
	proxy.sever()
	// The first write to observe the dead connection surfaces the typed
	// in-doubt error (mutations are not silently re-sent); the client
	// recovers the connection underneath, so resuming per the documented
	// protocol — read Fed, re-send from there — completes the stream. The
	// old client returned the same stale transport error forever here.
	lo := 1000
	if err := client.FeedBatch(ctx, tr.Records[lo:]); err != nil {
		if !errors.Is(err, farmer.ErrDisconnected) {
			t.Fatalf("in-doubt write failed with %v, want ErrDisconnected", err)
		}
		st, serr := client.Stats(ctx)
		if serr != nil {
			t.Fatalf("client did not recover from a transient fault: %v", serr)
		}
		lo = int(st.Fed)
		if err := client.FeedBatch(ctx, tr.Records[lo:]); err != nil {
			t.Fatalf("resumed feed failed: %v", err)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("fed %d records, want %d", st.Fed, len(tr.Records))
	}
}

// TestServeDrainBoundsHungCheckpoint: the drain-context satellite. A store
// write that hangs forever must not wedge the drain — Serve returns within
// the DrainTimeout with the abandoned-checkpoint error instead of hanging
// on the final checkpoint, and a ticker checkpoint behaves the same.
func TestServeDrainBoundsHungCheckpoint(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	restore := farmer.SetSaveToStore(func(sm *farmer.ShardedModel, st *farmer.Store) error {
		<-block // a wedged disk: the write never completes
		return nil
	})
	defer restore()
	defer close(block)

	m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithStore(filepath.Join(dir, "hung.wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, stop := startServe(t, m, farmer.ServeConfig{DrainTimeout: 200 * time.Millisecond})

	start := time.Now()
	err = stop()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v despite a 200ms DrainTimeout", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "checkpoint abandoned") {
		t.Fatalf("drain error = %v, want the abandoned-checkpoint error", err)
	}
}

// TestRemoteSaveBoundedByCheckpointTimeout: a client-requested Save against
// a hung store returns the abandoned-checkpoint error over the wire instead
// of stalling the connection forever. The routine-save bound is
// max(DrainTimeout, Checkpoint, a one-minute floor); the test lowers the
// floor so the bound is the 200ms DrainTimeout.
func TestRemoteSaveBoundedByCheckpointTimeout(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	restore := farmer.SetSaveToStore(func(sm *farmer.ShardedModel, st *farmer.Store) error {
		<-block
		return nil
	})
	defer restore()
	defer close(block)
	defer farmer.SetSaveBudgetFloor(0)()

	m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithStore(filepath.Join(dir, "hung2.wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addr, stop := startServe(t, m, farmer.ServeConfig{DrainTimeout: 200 * time.Millisecond})

	ctx := context.Background()
	client, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Save(ctx)
	if err == nil || !strings.Contains(err.Error(), "checkpoint abandoned") {
		t.Fatalf("remote Save = %v, want the abandoned-checkpoint error", err)
	}
	// The drain's own checkpoint also hits the hung store; tolerate its
	// bounded error.
	if err := stop(); err != nil && !strings.Contains(err.Error(), "checkpoint abandoned") {
		t.Fatalf("stop: %v", err)
	}
}

// TestReplicatedGroupBackups: a group-backup cut on the primary rides the
// replication stream, so the follower's replica-group fingerprint — groups
// AND backup versions — matches the primary's exactly (paper §4.3 backup
// atomicity, verified across processes).
func TestReplicatedGroupBackups(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()

	follower, err := farmer.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	primary, err := farmer.Open(cfg, farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}})
	defer pStop()

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	info, err := client.BackupGroups(ctx, tr.FileCount, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Groups == 0 || info.Versions == 0 {
		t.Fatalf("no groups cut: %+v", info)
	}

	fclient, err := farmer.Dial(ctx, fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fclient.Close()
	finfo, err := fclient.ReplicaGroups(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if finfo != info {
		t.Fatalf("follower groups %+v != primary %+v", finfo, info)
	}
	// A second cut advances versions identically on both ends.
	info2, err := client.BackupGroups(ctx, tr.FileCount, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Versions != info.Versions+uint64(info2.Groups) {
		t.Fatalf("second cut versions %d, want %d", info2.Versions, info.Versions+uint64(info2.Groups))
	}
	finfo2, err := fclient.ReplicaGroups(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if finfo2 != info2 {
		t.Fatalf("follower groups after second cut %+v != primary %+v", finfo2, info2)
	}
	// The mutating form is refused on the follower.
	if _, err := fclient.BackupGroups(ctx, tr.FileCount, 0.4); !errors.Is(err, farmer.ErrNotPrimary) {
		t.Fatalf("follower accepted a mutating groups op: %v", err)
	}
}

// TestLocalMinerGroupsSurface: the in-process §4.3 surface — rebuild, cut,
// read — without any wire in between.
func TestLocalMinerGroupsSurface(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	for i := range tr.Records[:100] {
		if err := m.Feed(ctx, &tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FeedBatch(ctx, tr.Records[100:]); err != nil {
		t.Fatal(err)
	}
	info, err := m.BackupGroups(tr.FileCount, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Groups == 0 || info.Versions == 0 || info.Fingerprint == 0 {
		t.Fatalf("no groups cut: %+v", info)
	}
	if got := m.ReplicaGroups(); got != info {
		t.Fatalf("read-back %+v != cut %+v", got, info)
	}
}
