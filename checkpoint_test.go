package farmer

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// openCheckpointed opens a two-shard miner over a file-backed store and
// the trace it is fed from.
func openCheckpointed(t *testing.T, records int) (*LocalMiner, *Trace, string) {
	t.Helper()
	tr, err := Generate(HP(records))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.wal")
	m, err := Open(ConfigFor(tr), WithShards(2), WithStore(path))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, tr, path
}

// TestCheckpointCadence: a store-backed miner writes one full checkpoint —
// its first — and a delta every time after, and compacts the log after the
// full one and after every compactEvery-th checkpoint.
func TestCheckpointCadence(t *testing.T) {
	const saves = 40
	m, tr, path := openCheckpointed(t, 12000)
	ctx := context.Background()
	chunk := len(tr.Records) / saves
	var prev int64
	for i := 1; i <= saves; i++ {
		if err := m.FeedBatch(ctx, tr.Records[(i-1)*chunk:i*chunk]); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(ctx); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// A delta only appends to the log; a compaction rewrites it to the
		// live keys, which the deltas since the last one outweigh.
		if compacted := i%compactEvery == 0; i > 1 && compacted != (fi.Size() < prev) {
			t.Errorf("save %d: log %d bytes after %d, compacted=%v", i, fi.Size(), prev, compacted)
		}
		prev = fi.Size()
	}
	if full, delta := m.ckptFull.Load(), m.ckptDelta.Load(); full != 1 || delta != saves-1 {
		t.Fatalf("%d saves wrote %d full and %d delta checkpoints, want 1 and %d", saves, full, delta, saves-1)
	}
}

// TestSaveAfterCatchupCutIsDelta: cutting a catch-up checkpoint for a
// follower copies the model into a throwaway store without rebinding the
// miner's checkpoint tracking, so the next Save is still a delta.
func TestSaveAfterCatchupCutIsDelta(t *testing.T) {
	m, tr, _ := openCheckpointed(t, 4000)
	ctx := context.Background()
	chunk := len(tr.Records) / 4
	for i := range 3 {
		if err := m.FeedBatch(ctx, tr.Records[i*chunk:(i+1)*chunk]); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(ctx); err != nil {
			t.Fatal(err)
		}
	}
	epoch := m.sm.SaveEpoch()
	if _, err := m.catchupCut(); err != nil {
		t.Fatal(err)
	}
	if err := m.FeedBatch(ctx, tr.Records[3*chunk:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(ctx); err != nil {
		t.Fatal(err)
	}
	if full, delta := m.ckptFull.Load(), m.ckptDelta.Load(); full != 1 || delta != 3 {
		t.Fatalf("after a catch-up cut: %d full and %d delta checkpoints, want 1 and 3", full, delta)
	}
	if got := m.sm.SaveEpoch(); got != epoch+1 {
		t.Fatalf("checkpoint epoch %d after a cut and one save, want %d", got, epoch+1)
	}
}

// TestSaveAfterFullCutIsFull: a follower restarted from its own checkpoint
// is bound to that store, and a full catch-up cut replaces the state the
// store describes. Its next Save must therefore be full — a delta would be
// written against state the follower no longer holds — and the store must
// reopen to the primary's state.
func TestSaveAfterFullCutIsFull(t *testing.T) {
	ctx := context.Background()
	f, tr, path := openCheckpointed(t, 4000)
	cfg := ConfigFor(tr)
	if err := f.FeedBatch(ctx, tr.Records[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := Open(cfg, WithShards(2), WithStore(path), WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	primary, err := Open(cfg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	cut, err := primary.catchupCut()
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.applyCatchup(cut); err != nil {
		t.Fatal(err)
	}
	full := stale.ckptFull.Load()
	if err := stale.Save(ctx); err != nil {
		t.Fatal(err)
	}
	if got := stale.ckptFull.Load(); got != full+1 {
		t.Fatalf("the save after a full cut wrote %d full checkpoints, want 1", got-full)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(cfg, WithShards(2), WithStore(path), WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if fp, _ := again.catchupFingerprint(); fp != cut.Fingerprint || again.sm.Fed() != cut.Pos {
		t.Fatalf("reopened at fed %d, fingerprint %#x; the primary's cut is %d, %#x", again.sm.Fed(), fp, cut.Pos, cut.Fingerprint)
	}
}
