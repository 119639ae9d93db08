package core

// Incremental-checkpoint proofs: a chain of full + delta saves must be
// indistinguishable from a single full save (fingerprint-identical on
// reload, and a reloaded model keeps mining identically); the delta path
// must actually be O(dirty), not O(model); a crash tearing a delta batch
// must recover to the previous checkpoint; and a tombstoned key must stay
// dead across any number of incremental saves and a compaction.

import (
	"os"
	"path/filepath"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func statsDelta(pre, post kvstore.WriteStats) kvstore.WriteStats {
	return kvstore.WriteStats{
		Puts:    post.Puts - pre.Puts,
		Deletes: post.Deletes - pre.Deletes,
		Bytes:   post.Bytes - pre.Bytes,
	}
}

// TestSaveDeltaChainEqualsFullSave: reloading a full save followed by two
// deltas yields the exact state a single fresh full save would, and the
// reloaded model mines the rest of the stream bit-identically to the
// original — the window, vectors and graph travel with the deltas, not just
// the lists.
func TestSaveDeltaChainEqualsFullSave(t *testing.T) {
	tr := tracegen.HP(9000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	m := NewSharded(cfg) // one shard: the lone Model fed through its own lock
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	feed := func(mm *ShardedModel, lo, hi int) {
		for i := lo; i < hi; i++ {
			mm.Feed(&tr.Records[i])
		}
	}
	hold := 1500 // final segment fed to both models after the reload
	seg := (len(tr.Records) - hold) / 3

	feed(m, 0, seg)
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	feed(m, seg, 2*seg)
	inc, err := m.SaveCheckpoint(s)
	if err != nil || !inc {
		t.Fatalf("second save: incremental=%v err=%v", inc, err)
	}
	feed(m, 2*seg, 3*seg)
	if inc, err = m.SaveCheckpoint(s); err != nil || !inc {
		t.Fatalf("third save: incremental=%v err=%v", inc, err)
	}

	m2 := NewSharded(cfg)
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	if m2.Fed() != m.Fed() {
		t.Fatalf("fed %d after chain reload, want %d", m2.Fed(), m.Fed())
	}
	fc := m.TrackedFileCount()
	if got, want := StateFingerprint(m2, fc), StateFingerprint(m, fc); got != want {
		t.Fatalf("full+delta chain reloads to %#x, live model is %#x", got, want)
	}

	// The chained store holds exactly what one fresh full save would.
	full, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := m.SaveMerged(full); err != nil {
		t.Fatal(err)
	}
	fpChain, err := StoreFingerprint(s, fc)
	if err != nil {
		t.Fatal(err)
	}
	fpFull, err := StoreFingerprint(full, fc)
	if err != nil {
		t.Fatal(err)
	}
	if fpChain != fpFull {
		t.Fatalf("chained store fingerprint %#x, fresh full save %#x", fpChain, fpFull)
	}

	// Both models mine the held-back tail identically.
	feed(m, 3*seg, 3*seg+hold)
	feed(m2, 3*seg, 3*seg+hold)
	fc = m.TrackedFileCount()
	if got, want := StateFingerprint(m2, fc), StateFingerprint(m, fc); got != want {
		t.Fatalf("diverged after reload: %#x vs %#x", got, want)
	}
}

// TestSaveCheckpointDeltaChainAcrossRestart: the ensemble chain — full
// SaveMerged plus incremental SaveCheckpoints — survives a WAL close/reopen
// (recovery replays the batches) and restores at a different stripe count,
// fingerprint-identical and still mining identically.
func TestSaveCheckpointDeltaChainAcrossRestart(t *testing.T) {
	tr := tracegen.HP(12000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 3
	sm := NewSharded(cfg)
	path := filepath.Join(t.TempDir(), "model.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	hold := 2000
	seg := (len(tr.Records) - hold) / 3
	sm.FeedBatch(tr.Records[:seg])
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	sm.FeedBatch(tr.Records[seg : 2*seg])
	inc, err := sm.SaveCheckpoint(s)
	if err != nil || !inc {
		t.Fatalf("second checkpoint: incremental=%v err=%v", inc, err)
	}
	sm.FeedBatch(tr.Records[2*seg : 3*seg])
	if inc, err = sm.SaveCheckpoint(s); err != nil || !inc {
		t.Fatalf("third checkpoint: incremental=%v err=%v", inc, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cfg2 := cfg
	cfg2.Shards = 5
	sm2 := NewSharded(cfg2)
	if err := sm2.LoadMerged(s2); err != nil {
		t.Fatal(err)
	}
	if sm2.Fed() != sm.Fed() {
		t.Fatalf("fed %d after restart, want %d", sm2.Fed(), sm.Fed())
	}
	fc := sm.TrackedFileCount()
	if got, want := StateFingerprint(sm2, fc), StateFingerprint(sm, fc); got != want {
		t.Fatalf("restarted ensemble fingerprints %#x, original %#x", got, want)
	}

	sm.FeedBatch(tr.Records[3*seg:])
	sm2.FeedBatch(tr.Records[3*seg:])
	fc = sm.TrackedFileCount()
	if got, want := StateFingerprint(sm2, fc), StateFingerprint(sm, fc); got != want {
		t.Fatalf("diverged after restart: %#x vs %#x", got, want)
	}
}

// TestSaveCheckpointIncrementalCost: with a small working set dirtied (well
// under 10% of tracked files), the incremental checkpoint must cost at
// least 5x fewer Puts and bytes than the full rewrite — the O(dirty) vs
// O(model) claim, measured at the store's own mutation counters.
func TestSaveCheckpointIncrementalCost(t *testing.T) {
	tr := tracegen.HP(20000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	sm.FeedBatch(tr.Records)
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pre := s.WriteStats()
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	fullCost := statsDelta(pre, s.WriteStats())

	// Refeed a handful of already-mined records: a small, representative
	// working set (the touched files plus their window neighbors).
	sm.FeedBatch(tr.Records[:30])
	dirty := 0
	for _, m := range sm.shards {
		dirty += m.DirtyFiles()
	}
	tracked := sm.TrackedFileCount()
	if dirty*10 > tracked {
		t.Fatalf("working set too large to test the claim: %d dirty of %d tracked", dirty, tracked)
	}

	pre = s.WriteStats()
	inc, err := sm.SaveCheckpoint(s)
	if err != nil || !inc {
		t.Fatalf("checkpoint: incremental=%v err=%v", inc, err)
	}
	incCost := statsDelta(pre, s.WriteStats())
	t.Logf("full: %+v; incremental (%d dirty / %d tracked): %+v", fullCost, dirty, tracked, incCost)
	if incCost.Puts == 0 || fullCost.Puts < 5*incCost.Puts {
		t.Fatalf("incremental Puts not >=5x cheaper: full %d vs delta %d", fullCost.Puts, incCost.Puts)
	}
	if incCost.Bytes == 0 || fullCost.Bytes < 5*incCost.Bytes {
		t.Fatalf("incremental bytes not >=5x cheaper: full %d vs delta %d", fullCost.Bytes, incCost.Bytes)
	}
}

// TestTornDeltaCheckpointRecovers: a crash that tears an incremental
// checkpoint's WAL batch mid-write must recover to the PREVIOUS checkpoint
// exactly — fingerprint-identical, correct fed counter — and the recovered
// store must accept further checkpoints.
func TestTornDeltaCheckpointRecovers(t *testing.T) {
	tr := tracegen.HP(9000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	path := filepath.Join(t.TempDir(), "model.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	half := len(tr.Records) / 2
	sm.FeedBatch(tr.Records[:half])
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	fcA := sm.TrackedFileCount()
	fpA := StateFingerprint(sm, fcA)
	fedA := sm.Fed()
	stA, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	sm.FeedBatch(tr.Records[half:])
	inc, err := sm.SaveCheckpoint(s)
	if err != nil || !inc {
		t.Fatalf("delta checkpoint: incremental=%v err=%v", inc, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stB, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Size() <= stA.Size()+1 {
		t.Fatalf("delta batch wrote no bytes (%d -> %d)", stA.Size(), stB.Size())
	}

	// Tear the log midway through the delta batch — between its first byte
	// and its commit frame — as a crash mid-checkpoint would.
	cut := stA.Size() + (stB.Size()-stA.Size())/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	s2, err := kvstore.Open(path)
	if err != nil {
		t.Fatalf("recovery refused the torn log: %v", err)
	}
	defer s2.Close()
	sm2 := NewSharded(cfg)
	if err := sm2.LoadMerged(s2); err != nil {
		t.Fatal(err)
	}
	if sm2.Fed() != fedA {
		t.Fatalf("recovered fed %d, want previous checkpoint's %d", sm2.Fed(), fedA)
	}
	if got := StateFingerprint(sm2, fcA); got != fpA {
		t.Fatalf("recovered state fingerprints %#x, previous checkpoint was %#x", got, fpA)
	}

	// The recovered store keeps checkpointing: the reload bound sm2 to the
	// surviving epoch, so the next save is a valid (here empty) delta.
	if _, err := sm2.SaveCheckpoint(s2); err != nil {
		t.Fatalf("checkpoint into recovered store: %v", err)
	}
}

// TestTombstoneNeverResurrects: a list dropped after a full save is
// tombstoned by the next delta, and stays dead across further incremental
// saves, a compaction, and a cold reload.
func TestTombstoneNeverResurrects(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	path := filepath.Join(t.TempDir(), "model.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	half := len(tr.Records) / 2
	sm.FeedBatch(tr.Records[:half])
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}

	// Drop one mined list through the same notification path the validity
	// filter uses, so the delta records the deletion.
	var victim trace.FileID
	found := false
	for f := 0; f < tr.FileCount && !found; f++ {
		if len(sm.CorrelatorList(trace.FileID(f))) > 0 {
			victim = trace.FileID(f)
			found = true
		}
	}
	if !found {
		t.Fatal("no mined list to drop")
	}
	sh := sm.shardFor(victim)
	sh.mu.Lock()
	sh.dropFacets(victim, facetList)
	sh.notifyListChange(sh.files[victim], victim)
	sh.mu.Unlock()

	// Keep mining — but never refeed the victim, which would legitimately
	// regrow its list — through four incremental checkpoints with a
	// compaction in the middle.
	var rest []trace.Record
	for _, r := range tr.Records[half:] {
		if r.File != victim {
			rest = append(rest, r)
		}
	}
	step := len(rest) / 4
	for i := 0; i < 4; i++ {
		sm.FeedBatch(rest[i*step : (i+1)*step])
		inc, err := sm.SaveCheckpoint(s)
		if err != nil || !inc {
			t.Fatalf("checkpoint %d: incremental=%v err=%v", i, inc, err)
		}
		if _, ok := s.Get(key(keyPrefixList, victim)); ok {
			t.Fatalf("tombstoned list %d present in store after checkpoint %d", victim, i)
		}
		if i == 1 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(key(keyPrefixList, victim)); ok {
		t.Fatalf("tombstoned list %d resurrected across restart", victim)
	}
	sm2 := NewSharded(cfg)
	if err := sm2.LoadMerged(s2); err != nil {
		t.Fatal(err)
	}
	if got := sm2.CorrelatorList(victim); got != nil {
		t.Fatalf("tombstoned list %d resurrected on reload: %v", victim, got)
	}
	if sm2.Fed() != sm.Fed() {
		t.Fatalf("fed %d after reload, want %d", sm2.Fed(), sm.Fed())
	}
}
