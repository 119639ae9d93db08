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
	"farmer/internal/replica"
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

// holdProxy forwards a primary's replication links to its follower and can
// hold them: while held, the bytes toward the follower wait in the proxy.
// release delivers them and then closes the links — a primary's last frame
// reaching its follower before the primary's death does.
type holdProxy struct {
	lis     net.Listener
	backend string

	mu    sync.Mutex
	held  bool
	links []*heldLink
}

type heldLink struct {
	c, up net.Conn
	queue []byte // primary→follower bytes kept by the hold
}

func newHoldProxy(t *testing.T, backend string) *holdProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &holdProxy{lis: lis, backend: backend}
	go p.accept()
	t.Cleanup(func() { lis.Close(); p.closeLinks() })
	return p
}

func (p *holdProxy) accept() {
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
		l := &heldLink{c: c, up: up}
		p.mu.Lock()
		p.links = append(p.links, l)
		p.mu.Unlock()
		go func() { _, _ = io.Copy(c, up); c.Close() }()
		go p.forward(l)
	}
}

// forward copies one link's primary→follower bytes, queueing them while the
// proxy holds.
func (p *holdProxy) forward(l *heldLink) {
	buf := make([]byte, 32<<10)
	for {
		n, err := l.c.Read(buf)
		p.mu.Lock()
		if p.held {
			l.queue = append(l.queue, buf[:n]...)
		} else if _, werr := l.up.Write(buf[:n]); err == nil {
			err = werr
		}
		p.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (p *holdProxy) hold() {
	p.mu.Lock()
	p.held = true
	p.mu.Unlock()
}

// release delivers what the hold kept, waits until settled reports that the
// follower has applied it, and closes every link.
func (p *holdProxy) release(t *testing.T, settled func() bool) {
	t.Helper()
	p.mu.Lock()
	p.held = false
	for _, l := range p.links {
		if _, err := l.up.Write(l.queue); err != nil {
			t.Errorf("delivering the held bytes: %v", err)
		}
		l.queue = nil
	}
	p.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); !settled(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never applied the held frame")
		}
	}
	p.closeLinks()
}

func (p *holdProxy) closeLinks() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.links {
		l.c.Close()
		l.up.Close()
	}
}

// resumeAfterHeldLink drives the in-doubt resume idiom over a schedule in
// which the resume point can still move: a primary replicates to a follower
// through a link that holds the primary's second chunk, the client loses
// the primary with that chunk in doubt, and reads Stats while the follower
// — not yet promotable — has not mined it. A number read then is not final:
// the follower mines the chunk once the link delivers it, promotes once the
// link closes, and a resume from the number mines the chunk twice. Stats
// must answer an error until a writable server exists, then that server's
// Fed. fail surfaces the in-doubt error while sending tr.Records[1000:held]:
// a FeedBatch's, or the first failed Feed's of a per-record stream.
func resumeAfterHeldLink(t *testing.T, held uint64, fail func(c *farmer.RemoteMiner, chunk []farmer.Record) error) {
	tr, err := farmer.Generate(farmer.HP(3000))
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
	link := newHoldProxy(t, fAddr)

	primary, err := farmer.Open(cfg, farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{link.lis.Addr().String()}})
	defer pStop()
	front := newRelay(t, pAddr)
	defer front.Close()

	client, err := farmer.Dial(ctx, front.lis.Addr().String(), farmer.WithFailover(fAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records[:1000]); err != nil {
		t.Fatal(err)
	}
	fedOf := func(m *farmer.LocalMiner) uint64 { st, _ := m.Stats(ctx); return st.Fed }

	link.hold()
	failed := make(chan error, 1)
	go func() { failed <- fail(client, tr.Records[1000:held]) }()
	for deadline := time.Now().Add(10 * time.Second); fedOf(primary) != held; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the primary never mined the held chunk")
		}
	}
	front.Close() // the client loses the primary, the second chunk unacked
	if err := <-failed; !errors.Is(err, farmer.ErrDisconnected) {
		t.Fatalf("in-doubt write failed with %v, want ErrDisconnected", err)
	}

	st, err := client.Stats(ctx)
	link.release(t, func() bool { return fedOf(follower) == held })
	if err == nil && st.Fed != held {
		t.Errorf("Stats read Fed %d while the follower could still move; it settled at %d", st.Fed, held)
	}
	if err != nil {
		if st, err = client.Stats(ctx); err != nil {
			t.Fatalf("Stats with a writable survivor: %v", err)
		}
	}
	if err := client.FeedBatch(ctx, tr.Records[st.Fed:]); err != nil {
		t.Fatalf("resuming from %d: %v", st.Fed, err)
	}
	if got := fedOf(follower); got != 3000 {
		t.Fatalf("survivor fed %d, want 3000", got)
	}
}

// TestStatsAfterInDoubtWriteIsFinal: after a synchronous FeedBatch fails
// with ErrDisconnected, Stats reads only a Fed that can no longer move.
func TestStatsAfterInDoubtWriteIsFinal(t *testing.T) {
	resumeAfterHeldLink(t, 2000, func(c *farmer.RemoteMiner, chunk []farmer.Record) error {
		return c.FeedBatch(context.Background(), chunk)
	})
}

// TestStatsAfterFailedFlushIsFinal is the per-record twin: a stream of
// synchronous Feeds loses the primary with one record in doubt.
func TestStatsAfterFailedFlushIsFinal(t *testing.T) {
	resumeAfterHeldLink(t, 1001, func(c *farmer.RemoteMiner, chunk []farmer.Record) error {
		for i := range chunk {
			if err := c.Feed(context.Background(), &chunk[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

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

// groupsOf builds the paper's §4.3 replica groups over m's mined state and
// returns each group's members, by group id.
func groupsOf(t *testing.T, m replica.Source, fileCount int) [][]farmer.FileID {
	t.Helper()
	mgr := replica.NewManager()
	if err := mgr.BuildGroups(m, fileCount, 0.4); err != nil {
		t.Fatal(err)
	}
	groups := make([][]farmer.FileID, mgr.Groups())
	for g := range groups {
		groups[g] = mgr.Members(replica.GroupID(g))
	}
	if len(groups) == 0 || len(groups) >= fileCount {
		t.Fatalf("%d groups over %d files: no multi-member group", len(groups), fileCount)
	}
	return groups
}

// TestReplicatedGroupBackups: replica groups are a function of replicated
// state, so they are derived on each end, not shipped. A follower caught up
// by a full cut and then fed by the stream builds, at the primary's
// position, exactly the primary's groups.
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
	// Half the trace is mined before the follower attaches: it reaches the
	// follower in the catch-up cut, the other half on the stream.
	if err := primary.FeedBatch(ctx, tr.Records[:3000]); err != nil {
		t.Fatal(err)
	}
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{ReplicateTo: []string{fAddr}})
	defer pStop()

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records[3000:]); err != nil {
		t.Fatal(err)
	}
	pst, _ := primary.Stats(ctx)
	fst, _ := follower.Stats(ctx)
	if pst.Fed != 6000 || fst.Fed != pst.Fed {
		t.Fatalf("follower fed %d, primary %d: not at equal position", fst.Fed, pst.Fed)
	}
	if got, want := groupsOf(t, follower, tr.FileCount), groupsOf(t, primary, tr.FileCount); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower built %d groups, primary %d, with different members", len(got), len(want))
	}
}

// TestLocalMinerGroupsSurface: a store-backed miner reopened with WithLoad
// builds the same replica groups it built before the restart — the groups
// need nothing the checkpoint does not hold.
func TestLocalMinerGroupsSurface(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg, path := farmer.ConfigFor(tr), filepath.Join(t.TempDir(), "store.wal")
	m, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(path))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	want := groupsOf(t, m, tr.FileCount)
	if err := m.Save(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(path), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := groupsOf(t, reopened, tr.FileCount); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened miner built %d groups, %d before the restart, with different members", len(got), len(want))
	}
}
