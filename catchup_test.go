package farmer_test

// Resume integration: a follower restarted from its own on-disk checkpoint
// at the restarted primary's position resumes with one empty final
// MsgCatchupDelta and a fingerprint check instead of a full snapshot — and
// gets the full snapshot automatically when its position is any other.

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer"
)

// serveLog is a concurrency-safe Logf sink the catch-up tests assert on.
type serveLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *serveLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *serveLog) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

func (l *serveLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func waitForLog(t *testing.T, l *serveLog, sub string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !l.contains(sub) {
		if time.Now().After(deadline) {
			t.Fatalf("log line %q never appeared; got %q", sub, l.all())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerDeltaCatchupOnRestart: a replicated pair drains cleanly, both
// sides restart from their checkpoints, and the follower — whose position
// matches the primary's — reattaches by a resume, never receiving a full
// snapshot. The reattached pair then keeps replicating.
func TestFollowerDeltaCatchupOnRestart(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()
	dir := t.TempDir()
	fWAL := filepath.Join(dir, "follower.wal")
	pWAL := filepath.Join(dir, "primary.wal")

	// Generation 1: populate both stores through a replicated pair.
	f1, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(fWAL))
	if err != nil {
		t.Fatal(err)
	}
	fAddr, fStop := startServe(t, f1, farmer.ServeConfig{Follower: true})
	p1, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(pWAL))
	if err != nil {
		t.Fatal(err)
	}
	pAddr, pStop := startServe(t, p1, farmer.ServeConfig{ReplicateTo: []string{fAddr}})

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.FeedBatch(ctx, tr.Records[:4000]); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Primary drains first so the follower holds every acked record, then
	// the follower drains and checkpoints them into its own store.
	if err := pStop(); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	if err := fStop(); err != nil {
		t.Fatal(err)
	}
	f1.Close()

	// Generation 2: both restart from disk. The follower's checkpoint puts
	// it exactly at the primary's position, so the attach must run as a
	// resume — no snapshot install.
	var flog, plog serveLog
	f2, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(fWAL), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	fAddr2, fStop2 := startServe(t, f2, farmer.ServeConfig{Follower: true, Logf: flog.logf})
	defer fStop2()
	p2, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(pWAL), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	pAddr2, pStop2 := startServe(t, p2, farmer.ServeConfig{ReplicateTo: []string{fAddr2}, Logf: plog.logf})
	defer pStop2()

	waitForLog(t, &plog, "caught up and attached")
	if !flog.contains("resumed from primary at position 4000") {
		t.Fatalf("follower did not resume: %q", flog.all())
	}
	if flog.contains("caught up from primary at position") {
		t.Fatalf("follower received a full snapshot despite a resumable checkpoint: %q", flog.all())
	}

	// The reattached pair replicates the rest of the stream.
	client2, err := farmer.Dial(ctx, pAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := client2.FeedBatch(ctx, tr.Records[4000:]); err != nil {
		t.Fatal(err)
	}
	fclient, err := farmer.Dial(ctx, fAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer fclient.Close()
	st, err := fclient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("follower fed %d after delta reattach, want %d", st.Fed, len(tr.Records))
	}
}

// TestFollowerCatchupFallsBackToFullWhenStale: a follower whose checkpoint
// is BEHIND the restarted primary's position cannot resume — the attach
// must fall back to the full snapshot (resetting the follower's stale
// loaded state) and end with the follower current.
func TestFollowerCatchupFallsBackToFullWhenStale(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()
	dir := t.TempDir()
	fWAL := filepath.Join(dir, "follower.wal")
	pWAL := filepath.Join(dir, "primary.wal")

	// Generation 1: replicate 3000 records, then lose the follower and keep
	// the primary mining alone to 4500 — the follower's checkpoint is now
	// 1500 records stale.
	f1, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(fWAL))
	if err != nil {
		t.Fatal(err)
	}
	fAddr, fStop := startServe(t, f1, farmer.ServeConfig{Follower: true})
	p1, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(pWAL))
	if err != nil {
		t.Fatal(err)
	}
	pAddr, pStop := startServe(t, p1, farmer.ServeConfig{ReplicateTo: []string{fAddr}})

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.FeedBatch(ctx, tr.Records[:3000]); err != nil {
		t.Fatal(err)
	}
	if err := fStop(); err != nil {
		t.Fatal(err)
	}
	f1.Close()
	// The next batch detaches the dead follower; the primary keeps serving.
	if err := client.FeedBatch(ctx, tr.Records[3000:4500]); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := pStop(); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	// Generation 2: the restarted primary stands at 4500; the follower
	// restarts at 3000, where no resume is possible.
	var flog serveLog
	f2, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(fWAL), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	fAddr2, fStop2 := startServe(t, f2, farmer.ServeConfig{Follower: true, Logf: flog.logf})
	defer fStop2()
	var plog serveLog
	p2, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(pWAL), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	pAddr2, pStop2 := startServe(t, p2, farmer.ServeConfig{ReplicateTo: []string{fAddr2}, Logf: plog.logf})
	defer pStop2()

	waitForLog(t, &plog, "caught up and attached")
	if !flog.contains("caught up from primary at position 4500") {
		t.Fatalf("stale follower was not bootstrapped by a full snapshot: %q", flog.all())
	}
	if flog.contains("resumed from primary") {
		t.Fatalf("stale follower resumed instead of taking a full snapshot: %q", flog.all())
	}

	// The pair is live again: replicate the rest and verify the follower
	// holds the whole stream.
	client2, err := farmer.Dial(ctx, pAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := client2.FeedBatch(ctx, tr.Records[4500:]); err != nil {
		t.Fatal(err)
	}
	fclient, err := farmer.Dial(ctx, fAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer fclient.Close()
	st, err := fclient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("follower fed %d after full fallback, want %d", st.Fed, len(tr.Records))
	}
}
