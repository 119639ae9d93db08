package core

// Incremental-checkpoint proofs: a chain of full + delta saves must be
// indistinguishable from a single full save (fingerprint-identical on
// reload, and a reloaded model keeps mining identically); the delta path
// must actually be O(dirty), not O(model); a crash tearing a delta batch
// must recover to the previous checkpoint; and a tombstoned key must stay
// dead across any number of incremental saves and a compaction.

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestSaveDeltaChainEqualsFullSave: a long chain of checkpoints — one
// full save, then 64 deltas into a file-backed store, the log compacted
// after every 16th and the store closed, reopened and reloaded into a fresh
// model halfway — holds at every compaction exactly the records a fresh full
// save of the same stream writes (only the epoch differs), and reloads to
// the live model's fingerprint. The chain is all a store-backed miner writes
// after its first save, so nothing but dirty tracking keeps it right: a
// missed tombstone or facet shows here. The half after the reload is carried
// by the reloaded model, so the window, vectors and graph must travel with
// the deltas for it to keep matching a model that was never reloaded.
func TestSaveDeltaChainEqualsFullSave(t *testing.T) {
	const deltas, compactEvery = 64, 16
	tr := tracegen.HP(9000).MustGenerate()
	seg := len(tr.Records) / (deltas + 1)
	epochKey := hex.EncodeToString([]byte(keyEpoch))
	stateOf := func(st *kvstore.Store) [][2]string {
		return slices.DeleteFunc(storeContents(st), func(kv [2]string) bool { return kv[0] == epochKey })
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mask = vsm.DefaultMask(true)
			cfg.Shards = shards
			// live writes the chain, fed a record at a time; ref mines the
			// same stream in batches and is only ever saved whole.
			live, ref := NewSharded(cfg), NewSharded(cfg)
			path := filepath.Join(t.TempDir(), "chain.wal")
			s, err := kvstore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			reload := func() *ShardedModel {
				m := NewSharded(cfg)
				if err := m.LoadMerged(s); err != nil {
					t.Fatal(err)
				}
				fc := ref.TrackedFileCount()
				if got, want := StateFingerprint(m, fc), StateFingerprint(ref, fc); got != want {
					t.Fatalf("chain reloads to %#x, live model is %#x", got, want)
				}
				return m
			}

			for i := 0; i <= deltas; i++ {
				recs := tr.Records[i*seg : (i+1)*seg]
				for j := range recs {
					live.Feed(&recs[j])
				}
				ref.FeedBatch(recs)
				if inc, err := live.SaveCheckpoint(s); err != nil || inc != (i > 0) {
					t.Fatalf("save %d: incremental=%v err=%v", i, inc, err)
				}
				if i == deltas/2 {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if s, err = kvstore.Open(path); err != nil {
						t.Fatal(err)
					}
					live = reload()
				}
				if i == 0 || i%compactEvery != 0 {
					continue
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				full, err := kvstore.Open("")
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.SaveMerged(full); err != nil {
					t.Fatal(err)
				}
				got, want := stateOf(s), stateOf(full)
				full.Close()
				if !slices.Equal(got, want) {
					k := 0
					for k < min(len(got), len(want)) && got[k] == want[k] {
						k++
					}
					t.Fatalf("delta %d: the chain's %d records and a fresh full save's %d part at record %d:\nchain %v\nfull  %v",
						i, len(got), len(want), k, got[k:min(k+1, len(got))], want[k:min(k+1, len(want))])
				}
				reload()
			}
		})
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

// TestDeltaAfterCutInstall: a shard's dirty list holds its records, not ids,
// so the reset a catch-up cut's install starts with must leave it holding
// none of the records it drops. A follower bound to a store, with dirty lists
// full of a history of its own, installs a primary's cut, keeps mining beside
// it, saves (full: a cut binds no store), mines on and saves a delta. The
// dropped records must be out of reach of every dirty list, spare capacity
// included; the delta must leave the store holding what a full save of the
// primary writes; and the store must reload to the primary's fingerprint.
func TestDeltaAfterCutInstall(t *testing.T) {
	epochKey := hex.EncodeToString([]byte(keyEpoch))
	stateOf := func(st *kvstore.Store) [][2]string {
		return slices.DeleteFunc(storeContents(st), func(kv [2]string) bool { return kv[0] == epochKey })
	}
	tr := tracegen.HP(6000).MustGenerate()
	own := tracegen.HP(3000)
	own.Seed = 11
	history := own.MustGenerate().Records
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			primary, follower := NewSharded(cfg), NewSharded(cfg)
			st, err := kvstore.Open(filepath.Join(t.TempDir(), "follower.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			follower.FeedBatch(history[:1000])
			if err := follower.SaveMerged(st); err != nil {
				t.Fatal(err)
			}
			follower.FeedBatch(history[1000:])
			if follower.Shard(0).DirtyFiles() == 0 {
				t.Fatal("the follower's history dirtied nothing: nothing to check")
			}

			primary.FeedBatch(tr.Records[:2000])
			frames, err := primary.Cut()
			if err != nil {
				t.Fatal(err)
			}
			n := primary.TrackedFileCount()
			if err := follower.LoadCut(frames, primary.Fed(), StateFingerprint(primary, n), n); err != nil {
				t.Fatal(err)
			}
			for i := range shards {
				m := follower.Shard(i)
				for _, r := range m.dirtyList[:cap(m.dirtyList)] {
					if r.fp != nil && m.files[r.id] != r.fp {
						t.Fatalf("shard %d: after the cut's install the dirty list still reaches a dropped record of file %d", i, r.id)
					}
				}
			}

			for k, seg := range [][2]int{{2000, 4000}, {4000, 6000}} {
				recs := tr.Records[seg[0]:seg[1]]
				primary.FeedBatch(recs)
				for j := range recs {
					follower.Feed(&recs[j])
				}
				if inc, err := follower.SaveCheckpoint(st); err != nil || inc != (k == 1) {
					t.Fatalf("save %d after the cut: incremental=%v, %v", k, inc, err)
				}
			}
			full, err := kvstore.Open("")
			if err != nil {
				t.Fatal(err)
			}
			if err := primary.SaveMerged(full); err != nil {
				t.Fatal(err)
			}
			if got, want := stateOf(st), stateOf(full); !slices.Equal(got, want) {
				t.Fatalf("after the delta the store holds %d records, a full save of the primary %d; first difference: %s",
					len(got), len(want), firstDifference(got, want))
			}
			reloaded := NewSharded(cfg)
			if err := reloaded.LoadMerged(st); err != nil {
				t.Fatal(err)
			}
			n = primary.TrackedFileCount()
			if got, want := StateFingerprint(reloaded, n), StateFingerprint(primary, n); got != want {
				t.Fatalf("the store reloads to %#x, the primary is %#x", got, want)
			}
		})
	}
}
