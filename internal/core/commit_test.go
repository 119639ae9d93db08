package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// A checkpoint reads the model under the dispatch lock and writes the store
// outside it. These tests hold a store write back — a Scan parked in its
// callback keeps the store's read lock, so no commit can take the write lock
// — and look at what waits.

// parkScan parks a Scan of st in its callback and returns once it holds the
// store's read lock; calling the returned func lets it go.
func parkScan(t *testing.T, st *kvstore.Store) (release func()) {
	t.Helper()
	parked, done := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go st.Scan(nil, nil, func(_, _ []byte) bool {
		close(parked)
		<-done
		return false
	})
	<-parked
	release = func() { once.Do(func() { close(done) }) }
	t.Cleanup(release)
	return release
}

// staged waits until a checkpoint has staged — every shard's dirty set
// restarted — which it does only under the dispatch lock.
func staged(t *testing.T, sm *ShardedModel) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		dirty := 0
		for i := range sm.Shards() {
			dirty += sm.Shard(i).DirtyFiles()
		}
		if dirty == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint never staged: %d dirty files", dirty)
		}
	}
}

// boundModel mines the first half of an HP trace into a 2-shard ensemble,
// binds it to a file-backed store with a full save, and mines a quarter
// more, so the next checkpoint is a delta with work in it.
func boundModel(t *testing.T) (*ShardedModel, *kvstore.Store, string, []trace.Record) {
	t.Helper()
	tr := tracegen.HP(4000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	path := filepath.Join(t.TempDir(), "store.wal")
	st, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	half, quarter := len(tr.Records)/2, len(tr.Records)/4
	sm.FeedBatch(tr.Records[:half])
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	sm.FeedBatch(tr.Records[half : half+quarter])
	return sm, st, path, tr.Records[half+quarter:]
}

// TestIngestNotBlockedByCommit: while a delta checkpoint waits for the store,
// having staged, a Feed returns — ingest waits for the model to be read, not
// for the write. The save then completes as a delta holding the model as it
// was at the save's position.
func TestIngestNotBlockedByCommit(t *testing.T) {
	sm, st, path, rest := boundModel(t)
	release := parkScan(t, st)
	const fileCount = 1 << 14
	pos, want := sm.Fed(), StateFingerprint(sm, fileCount)
	type result struct {
		inc bool
		err error
	}
	saved := make(chan result, 1)
	go func() {
		inc, err := sm.SaveCheckpoint(st)
		saved <- result{inc, err}
	}()
	staged(t, sm)
	fed := make(chan struct{})
	go func() {
		sm.Feed(&rest[0])
		close(fed)
	}()
	select {
	case <-fed:
	case <-time.After(time.Second):
		t.Error("Feed waited on a checkpoint's store write")
	}
	release()
	<-fed
	if r := <-saved; r.err != nil || !r.inc {
		t.Fatalf("checkpoint: incremental=%v, %v", r.inc, r.err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded := NewSharded(sm.Config())
	if err := loaded.LoadMerged(st2); err != nil {
		t.Fatal(err)
	}
	if loaded.Fed() != pos {
		t.Fatalf("reloaded at position %d, the save was taken at %d", loaded.Fed(), pos)
	}
	if got := StateFingerprint(loaded, fileCount); got != want {
		t.Fatalf("reloaded state fingerprints %#x, the model at the save's position %#x", got, want)
	}
}

// TestLoadCutDuringCommitUnbinds: a catch-up cut installed while a
// checkpoint's commit is in flight waits for that commit, then leaves the
// ensemble bound to no store — the commit does not rebind it afterwards — so
// the next save is full.
func TestLoadCutDuringCommitUnbinds(t *testing.T) {
	sm, st, _, rest := boundModel(t)
	primary := NewSharded(sm.Config())
	primary.FeedBatch(rest)
	frames, err := primary.Cut()
	if err != nil {
		t.Fatal(err)
	}
	n := primary.TrackedFileCount()

	release := parkScan(t, st)
	saved := make(chan error, 1)
	go func() {
		_, err := sm.SaveCheckpoint(st)
		saved <- err
	}()
	staged(t, sm)
	loaded := make(chan error, 1)
	go func() { loaded <- sm.LoadCut(frames, primary.Fed(), StateFingerprint(primary, n), n) }()
	time.Sleep(20 * time.Millisecond) // let the install reach the checkpoint mutex
	release()
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if e := sm.SaveEpoch(); e != 0 {
		t.Fatalf("bound at epoch %d after a catch-up cut, want unbound", e)
	}
	if inc, err := sm.SaveCheckpoint(st); err != nil || inc {
		t.Fatalf("first save after a catch-up cut: incremental=%v, %v; want a full save", inc, err)
	}
	if got, want := StateFingerprint(sm, n), StateFingerprint(primary, n); got != want {
		t.Fatalf("installed cut fingerprints %#x, primary %#x", got, want)
	}
}

// TestCheckpointOrderRace: feeders on several goroutines beside two
// goroutines checkpointing in a loop and one compacting. Checkpoints run one
// at a time in staging order, so the last save, reloaded, is the live model.
// Run it under -race.
func TestCheckpointOrderRace(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mask = vsm.DefaultMask(true)
			cfg.Shards = shards
			sm := NewSharded(cfg)
			path := filepath.Join(t.TempDir(), "store.wal")
			st, err := kvstore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := sm.SaveMerged(st); err != nil { // bind: the loops' saves are deltas
				t.Fatal(err)
			}

			var stop atomic.Bool
			var saves atomic.Int64
			var feeders, others sync.WaitGroup
			errs := make(chan error, 3)
			const nFeeders = 3
			part := len(tr.Records) / nFeeders
			for i := range nFeeders {
				recs := tr.Records[i*part : (i+1)*part]
				feeders.Add(1)
				go func() {
					defer feeders.Done()
					for range 4 {
						for lo, i := 0, 0; lo < len(recs); i++ {
							if i%4 == 0 {
								sm.Feed(&recs[lo])
								lo++
								continue
							}
							hi := min(lo+32, len(recs))
							sm.FeedBatch(recs[lo:hi])
							lo = hi
						}
					}
				}()
			}
			for range 2 {
				others.Add(1)
				go func() {
					defer others.Done()
					for !stop.Load() {
						if _, err := sm.SaveCheckpoint(st); err != nil {
							errs <- err
							return
						}
						saves.Add(1)
					}
				}()
			}
			others.Add(1)
			go func() {
				defer others.Done()
				for !stop.Load() {
					if err := st.Compact(); err != nil {
						errs <- err
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
			feeders.Wait()
			stop.Store(true)
			t.Logf("%d checkpoints beside %d records", saves.Load(), sm.Fed())
			others.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if _, err := sm.SaveCheckpoint(st); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := kvstore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			loaded := NewSharded(cfg)
			if err := loaded.LoadMerged(st2); err != nil {
				t.Fatal(err)
			}
			if loaded.Fed() != sm.Fed() {
				t.Fatalf("reloaded at position %d, live model at %d", loaded.Fed(), sm.Fed())
			}
			if got, want := StateFingerprint(loaded, tr.FileCount), StateFingerprint(sm, tr.FileCount); got != want {
				t.Fatalf("reloaded state fingerprints %#x, live model %#x", got, want)
			}
		})
	}
}
