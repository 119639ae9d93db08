package core

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// minedHP mines the HP trace on a 1-shard ensemble, which is how a single
// Model persists.
func minedHP(t *testing.T, records int) *ShardedModel {
	t.Helper()
	tr := tracegen.HP(records).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	m := NewSharded(cfg)
	for i := range tr.Records {
		m.Feed(&tr.Records[i])
	}
	return m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := minedHP(t, 8000)
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}

	m2 := NewSharded(m.Config())
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	if m2.Fed() != m.Fed() {
		t.Fatalf("fed %d != %d", m2.Fed(), m.Fed())
	}
	st, st2 := m.Stats(), m2.Stats()
	if st.Correlators != st2.Correlators || st.Lists != st2.Lists || st.TrackedFiles != st2.TrackedFiles {
		t.Fatalf("stats differ: %+v vs %+v", st, st2)
	}
	// Every list matches exactly.
	for f := trace.FileID(0); int(f) < 6000; f++ {
		a, b := m.CorrelatorList(f), m2.CorrelatorList(f)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("file %d lists differ:\n%+v\n%+v", f, a, b)
		}
	}
	// Predictions identical.
	for f := trace.FileID(0); int(f) < 2000; f++ {
		if !reflect.DeepEqual(m.Predict(f, 4), m2.Predict(f, 4)) {
			t.Fatalf("predictions differ for %d", f)
		}
	}
}

func TestLoadFromEmptyStore(t *testing.T) {
	s, _ := kvstore.Open("")
	defer s.Close()
	m := NewSharded(DefaultConfig())
	if err := m.LoadMerged(s); err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestLoadRejectsParameterMismatch(t *testing.T) {
	m := minedHP(t, 2000)
	s, _ := kvstore.Open("")
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	cfg.Weight = 0.3 // different p
	m2 := NewSharded(cfg)
	if err := m2.LoadMerged(s); err == nil {
		t.Fatal("parameter mismatch accepted")
	}
}

func TestSaveLoadThroughWALFile(t *testing.T) {
	m := minedHP(t, 3000)
	path := filepath.Join(t.TempDir(), "model.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover from disk.
	s2, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2 := NewSharded(m.Config())
	if err := m2.LoadMerged(s2); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().Correlators != m.Stats().Correlators {
		t.Fatal("correlators lost across WAL restart")
	}
}

// TestLoadedModelKeepsMining: a restored model must continue to learn.
func TestLoadedModelKeepsMining(t *testing.T) {
	m := minedHP(t, 2000)
	s, _ := kvstore.Open("")
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	m2 := NewSharded(m.Config())
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	before := m2.Stats().Fed
	m2.Feed(&trace.Record{File: 1, UID: 1, Path: "/a/b"})
	if m2.Stats().Fed != before+1 {
		t.Fatal("restored model did not keep counting")
	}
}

// minedShardedHP mines the HP trace on an ensemble and returns both for
// merged-persistence checks.
func minedShardedHP(t *testing.T, records, shards int) (*trace.Trace, *ShardedModel) {
	t.Helper()
	tr := tracegen.HP(records).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = shards
	sm := NewSharded(cfg)
	sm.FeedTraceParallel(tr)
	return tr, sm
}

func assertSamePredictions(t *testing.T, tr *trace.Trace, want, got interface {
	Predict(f trace.FileID, k int) []trace.FileID
}) {
	t.Helper()
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		w, g := want.Predict(id, 8), got.Predict(id, 8)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("file %d predictions differ: %v vs %v", f, w, g)
		}
	}
}

// TestSaveMergedLoadMergedResize is the resize round trip: a 4-stripe
// ensemble saves once, and ensembles at other stripe counts — and under
// entirely different deployment partitioners — load the same record with
// identical predictions.
func TestSaveMergedLoadMergedResize(t *testing.T) {
	tr, sm := minedShardedHP(t, 8000, 4)
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}

	cfg := sm.Config()
	for _, shards := range []int{1, 2, 7} {
		c := cfg
		c.Shards = shards
		sm2 := NewSharded(c)
		if err := sm2.LoadMerged(st); err != nil {
			t.Fatal(err)
		}
		if sm2.Fed() != sm.Fed() {
			t.Fatalf("shards=%d: fed %d != %d", shards, sm2.Fed(), sm.Fed())
		}
		assertSamePredictions(t, tr, sm, sm2)
		ws, gs := sm.Stats(), sm2.Stats()
		if ws.Lists != gs.Lists || ws.Correlators != gs.Correlators || ws.TrackedFiles != gs.TrackedFiles {
			t.Fatalf("shards=%d: stats differ: %+v vs %+v", shards, ws, gs)
		}
	}
	for _, part := range []partition.Partitioner{partition.Hash, partition.Group} {
		sm2 := NewShardedPartitioned(cfg, 3, part)
		if err := sm2.LoadMerged(st); err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, tr, sm, sm2)
	}
}

// TestLoadMergedRebalancesPlacement: after a resize load, every file's
// state sits on the shard the new stripe count assigns — no orphans.
func TestLoadMergedRebalancesPlacement(t *testing.T) {
	tr, sm := minedShardedHP(t, 5000, 2)
	st, _ := kvstore.Open("")
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	c := sm.Config()
	c.Shards = 5
	sm2 := NewSharded(c)
	if err := sm2.LoadMerged(st); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		own := sm2.Partitioner()(id, sm2.Shards())
		for i := 0; i < sm2.Shards(); i++ {
			if n := len(sm2.Shard(i).CorrelatorList(id)); n > 0 && i != own {
				t.Fatalf("file %d has %d correlators on shard %d, owner is %d", f, n, i, own)
			}
		}
	}
}

// TestLoadMergedKeepsMining: a resized ensemble continues to learn and
// counts from the restored fed total.
func TestLoadMergedKeepsMining(t *testing.T) {
	_, sm := minedShardedHP(t, 2000, 3)
	st, _ := kvstore.Open("")
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		c := sm.Config()
		c.Shards = shards
		sm2 := NewSharded(c)
		if err := sm2.LoadMerged(st); err != nil {
			t.Fatal(err)
		}
		before := sm2.Fed()
		if before != sm.Fed() {
			t.Fatalf("restored fed %d != %d", before, sm.Fed())
		}
		sm2.Feed(&trace.Record{File: 1, UID: 1, Path: "/a/b"})
		if sm2.Fed() != before+1 {
			t.Fatalf("resized ensemble did not keep counting")
		}
	}
}

func TestLoadMergedRejectsParameterMismatch(t *testing.T) {
	_, sm := minedShardedHP(t, 2000, 2)
	st, _ := kvstore.Open("")
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	c := sm.Config()
	c.Weight = 0.3
	if err := NewSharded(c).LoadMerged(st); err == nil {
		t.Fatal("parameter mismatch accepted")
	}
	empty, _ := kvstore.Open("")
	defer empty.Close()
	if err := NewSharded(sm.Config()).LoadMerged(empty); err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestDecodeListRejectsGarbage(t *testing.T) {
	if _, err := decodeList([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage list accepted")
	}
	if _, err := decodeList([]byte{1}); err == nil {
		t.Fatal("short list accepted")
	}
}

func TestDecodeVectorRejectsGarbage(t *testing.T) {
	if _, err := decodeVector([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage vector accepted")
	}
}

// TestSaveLoadPathlessTrace: vectors of a pathless (INS/RES-style) trace
// end with an empty path string; decoding it at the end of the value must
// yield "", not EOF. Regression test — every pathless load failed before
// decodeVector stopped treating end-of-value as an error for a zero-length read.
func TestSaveLoadPathlessTrace(t *testing.T) {
	tr := tracegen.INS(3000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(false)
	m := NewSharded(cfg)
	for i := range tr.Records {
		m.Feed(&tr.Records[i])
	}

	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	m2 := NewSharded(cfg)
	if err := m2.LoadMerged(s); err != nil {
		t.Fatalf("pathless load: %v", err)
	}
	for f := 0; f < tr.FileCount; f++ {
		if !reflect.DeepEqual(m.CorrelatorList(trace.FileID(f)), m2.CorrelatorList(trace.FileID(f))) {
			t.Fatalf("file %d list differs after pathless round trip", f)
		}
	}
}

// TestLoadMergedRejectsCorruptValues: a store whose frames are intact but
// whose values are garbage must fail the load with an error — never panic,
// never install a half-decoded model — and fail the fingerprint a catch-up
// follower computes before installing. The rows below the first five state
// the store's strictness: c/ and v/ values are exact-length like g/ and
// m/window (every writer emits exact bytes), and a v/ string may be longer
// than the wire's trace.MaxPathLen, because an in-process Feed may have
// stored one.
func TestLoadMergedRejectsCorruptValues(t *testing.T) {
	oneEntryList := AppendCorrelators(nil, []Correlator{{File: 3, Degree: 0.5, Sim: 0.5, Freq: 0.5}})
	claimsTwo := append([]byte{2, 0, 0, 0}, oneEntryList[4:]...)
	vec := vsm.AppendVector(nil, &vsm.Vector{Scalars: []string{"u:1"}, Path: "/a"})
	longPath := vsm.AppendVector(nil, &vsm.Vector{Path: "/" + strings.Repeat("x", trace.MaxPathLen)})
	for _, tc := range []struct {
		name string
		key  []byte
		val  []byte
		ok   bool
	}{
		{"garbage list", key(keyPrefixList, 7), []byte{0xff, 0xff, 0xff, 0xff}, false},
		{"truncated list", key(keyPrefixList, 7), []byte{2, 0, 0, 0, 1}, false},
		{"garbage vector", key(keyPrefixVector, 9), []byte{0xff, 0xff, 0xff, 0xff}, false},
		{"truncated vector", key(keyPrefixVector, 9), []byte{1, 0, 0, 0, 5, 0, 0, 0, 'a'}, false},
		{"bad list key", append([]byte(keyPrefixList), 1, 2), []byte{0, 0, 0, 0}, false},
		{"exact list", key(keyPrefixList, 7), oneEntryList, true},
		{"trailing byte after list", key(keyPrefixList, 7), append(oneEntryList[:len(oneEntryList):len(oneEntryList)], 0), false},
		{"list count one past the bytes", key(keyPrefixList, 7), claimsTwo, false},
		{"exact vector", key(keyPrefixVector, 9), vec, true},
		{"trailing byte after vector", key(keyPrefixVector, 9), append(vec[:len(vec):len(vec)], 0), false},
		{"vector path over the wire's MaxPathLen", key(keyPrefixVector, 9), longPath, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := minedHP(t, 2000)
			s, err := kvstore.Open("")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := m.SaveMerged(s); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(tc.key, tc.val); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3} {
				cfg := DefaultConfig()
				cfg.Shards = shards
				if err := NewSharded(cfg).LoadMerged(s); (err == nil) != tc.ok {
					t.Fatalf("shards=%d: LoadMerged: %v, want ok=%v", shards, err, tc.ok)
				}
			}
			if _, err := StoreFingerprint(s, 16); (err == nil) != tc.ok {
				t.Fatalf("StoreFingerprint: %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestCheckpointPrunesStaleKeys: state dropped between checkpoints (a list
// the validity filter removed) must not resurrect on reload from the later
// checkpoint.
func TestCheckpointPrunesStaleKeys(t *testing.T) {
	m := minedHP(t, 4000)
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}

	// Drop one mined list and one vector, as the threshold filter would.
	var victim trace.FileID
	sh := m.Shard(0)
	sh.mu.Lock()
	for f, fp := range sh.files {
		if fp.have&facetList != 0 {
			victim = f
			break
		}
	}
	sh.dropFacets(victim, facetList|facetVec)
	sh.mu.Unlock()

	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	m2 := NewSharded(m.Config())
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	if got := m2.CorrelatorList(victim); got != nil {
		t.Fatalf("dropped list %d resurrected from checkpoint: %v", victim, got)
	}
	if _, ok := m2.Vector(victim); ok {
		t.Fatalf("dropped vector %d resurrected from checkpoint", victim)
	}
}

// dropFacets removes facets of f's record as the validity filter removes an
// emptied list, telling nobody: no dirty mark, no hook. Callers hold m.mu.
func (m *Model) dropFacets(f trace.FileID, facets uint8) {
	fp := m.files[f]
	fp.have &^= facets
	if facets&facetList != 0 {
		fp.list = nil
	}
}

// TestSaveMergedPrunesStaleKeys: same contract for the ensemble checkpoint.
func TestSaveMergedPrunesStaleKeys(t *testing.T) {
	tr := tracegen.HP(4000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Shards = 3
	sm := NewSharded(cfg)
	sm.FeedTraceParallel(tr)
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
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
	sh.mu.Unlock()

	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	sm2 := NewSharded(cfg)
	if err := sm2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	if got := sm2.CorrelatorList(victim); got != nil {
		t.Fatalf("dropped list %d resurrected from merged checkpoint: %v", victim, got)
	}
}

// TestSaveLoadHighFileIDs: FileIDs with a 0xff top byte sort after the old
// "prefix\xff" scan bound; they must survive a save/load round trip like
// any other id (regression test for the prefixEnd fix).
func TestSaveLoadHighFileIDs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	m := NewSharded(cfg)
	ids := []trace.FileID{0xff000001, 0xff000002, 0xfffffffe, 1, 2}
	for round := 0; round < 20; round++ {
		for i, f := range ids {
			m.Feed(&trace.Record{Seq: uint64(round*len(ids) + i), File: f, UID: 7, PID: 9, Host: 1, Path: fmt.Sprintf("/hi/%d", f)})
		}
	}
	if len(m.CorrelatorList(0xff000001)) == 0 {
		t.Fatal("test premise broken: no mined list for the high id")
	}
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	m2 := NewSharded(cfg)
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	for _, f := range ids {
		if !reflect.DeepEqual(m.CorrelatorList(f), m2.CorrelatorList(f)) {
			t.Fatalf("file %#x lost or changed across save/load", f)
		}
		if _, ok := m2.Vector(f); !ok {
			t.Fatalf("vector %#x lost across save/load", f)
		}
	}
}

// TestLoadMergedRefusesFedEnsemble: the freshness check runs under the
// dispatch lock, so a load can never interleave with feeding.
func TestLoadMergedRefusesFedEnsemble(t *testing.T) {
	m := minedHP(t, 2000)
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	r := trace.Record{File: 1, Path: "/x"}
	sm.Feed(&r)
	if err := sm.LoadMerged(s); err == nil {
		t.Fatal("LoadMerged accepted an ensemble that already ingested")
	}
	if sm.Fed() != 1 {
		t.Fatalf("refused load disturbed the fed counter: %d", sm.Fed())
	}
}

// TestCheckpointIsComplete is the property farmerd replication rests on: a
// model restored from a mid-stream checkpoint (lists, vectors, graph AND
// lookahead window) and fed the remainder of the trace reaches a state
// bit-identical to a model that mined the whole trace continuously. Before
// graph/window persistence, the restored model silently diverged — every
// post-restore Frequency() started from an empty graph.
func TestCheckpointIsComplete(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cut := len(tr.Records) / 2

	ref := New(cfg)
	ref.FeedTrace(tr)
	want := StateFingerprint(ref, tr.FileCount)

	m := NewSharded(cfg)
	for i := 0; i < cut; i++ {
		m.Feed(&tr.Records[i])
	}
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	m2 := NewSharded(cfg)
	if err := m2.LoadMerged(s); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(tr.Records); i++ {
		m2.Feed(&tr.Records[i])
	}
	if got := StateFingerprint(m2, tr.FileCount); got != want {
		t.Fatalf("restored model diverged: fingerprint %#x != continuous %#x", got, want)
	}
	if m2.Fed() != uint64(len(tr.Records)) {
		t.Fatalf("fed %d, want %d", m2.Fed(), len(tr.Records))
	}
}

// TestCheckpointIsCompleteMerged: the same completeness property for a
// sharded ensemble checkpointed with SaveMerged mid-stream and restored at
// a different stripe count.
func TestCheckpointIsCompleteMerged(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cut := len(tr.Records) / 3

	refCfg := cfg
	ref := New(refCfg)
	ref.FeedTrace(tr)
	want := StateFingerprint(ref, tr.FileCount)

	cfg.Shards = 3
	sm := NewSharded(cfg)
	sm.FeedBatch(tr.Records[:cut])
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := sm.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5} {
		cfg.Shards = shards
		sm2 := NewSharded(cfg)
		if err := sm2.LoadMerged(s); err != nil {
			t.Fatal(err)
		}
		sm2.FeedBatch(tr.Records[cut:])
		if got := StateFingerprint(sm2, tr.FileCount); got != want {
			t.Fatalf("shards=%d: restored ensemble diverged: %#x != %#x", shards, got, want)
		}
	}
}

// TestCheckpointOneShardLoadsAtFour: a one-shard ensemble keeps its window
// and record counter in the dispatcher like any other, so its checkpoint is
// the same bytes as ever — the golden store, m/window included, which the
// commit before the one-shard fork was removed wrote for this stream — and a
// four-shard ensemble loads it and mines on to the sequential fingerprint.
func TestCheckpointOneShardLoadsAtFour(t *testing.T) {
	recs := goldenRecords()
	one := NewSharded(goldenConfig())
	for i := range recs {
		one.Feed(&recs[i])
	}
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := one.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	if got := storeContents(st); !reflect.DeepEqual(got, goldenStore) {
		t.Fatalf("one-shard checkpoint differs from the golden store:\n got  %v\n want %v", got, goldenStore)
	}

	tr := tracegen.HP(6000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	ref := New(cfg)
	ref.FeedTrace(tr)
	cut := len(tr.Records) / 2
	one = NewSharded(cfg)
	for i := 0; i < cut; i++ {
		one.Feed(&tr.Records[i])
	}
	big, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if err := one.SaveMerged(big); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	four := NewSharded(cfg)
	if err := four.LoadMerged(big); err != nil {
		t.Fatal(err)
	}
	if got, want := four.WindowTail(), one.WindowTail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded window %v, saved %v", got, want)
	}
	mid := cut + (len(tr.Records)-cut)/2
	for i := cut; i < mid; i++ {
		four.Feed(&tr.Records[i])
	}
	four.FeedBatch(tr.Records[mid:])
	if got, want := StateFingerprint(four, tr.FileCount), StateFingerprint(ref, tr.FileCount); got != want {
		t.Fatalf("1 shard saved, 4 loaded and fed on: fingerprint %#x, sequential %#x", got, want)
	}
	if got, want := four.Fed(), ref.Fed(); got != want {
		t.Fatalf("fed %d, sequential %d", got, want)
	}
}

// TestStoreFingerprintMatchesState: the store-side fingerprint (what a
// replication follower verifies before installing a snapshot) equals the
// model-side fingerprint of the state that wrote it.
func TestStoreFingerprintMatchesState(t *testing.T) {
	m := minedHP(t, 3000)
	fc := m.TrackedFileCount()
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := m.SaveMerged(s); err != nil {
		t.Fatal(err)
	}
	want := StateFingerprint(m, fc)
	got, err := StoreFingerprint(s, fc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("store fingerprint %#x != state fingerprint %#x", got, want)
	}
}

// TestWindowTailPrimeWindow: the public window round trip used by the
// replication bootstrap, at both shard shapes.
func TestWindowTailPrimeWindow(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.Mask = vsm.DefaultMask(true)
		cfg.Shards = shards
		sm := NewSharded(cfg)
		for i := 0; i < 10; i++ {
			sm.Feed(&trace.Record{File: trace.FileID(i), Path: fmt.Sprintf("/f/%d", i)})
		}
		w := sm.WindowTail()
		want := []trace.FileID{7, 8, 9} // window 3, oldest first
		if !reflect.DeepEqual(w, want) {
			t.Fatalf("shards=%d: window %v, want %v", shards, w, want)
		}
		fresh := NewSharded(cfg)
		fresh.PrimeWindow(w)
		if got := fresh.WindowTail(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: primed window %v, want %v", shards, got, want)
		}
		// Priming more than the window keeps the most recent entries.
		fresh.PrimeWindow([]trace.FileID{1, 2, 3, 4, 5})
		if got := fresh.WindowTail(); !reflect.DeepEqual(got, []trace.FileID{3, 4, 5}) {
			t.Fatalf("shards=%d: overlong prime kept %v", shards, got)
		}
	}
}

// TestTrackedFileCount: the dense fingerprint bound follows the highest
// file id holding any mined state.
func TestTrackedFileCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	if got := sm.TrackedFileCount(); got != 0 {
		t.Fatalf("empty ensemble tracks %d", got)
	}
	for i := 0; i < 4; i++ {
		sm.Feed(&trace.Record{File: trace.FileID(100 + i), Path: "/shared/file"})
	}
	if got := sm.TrackedFileCount(); got != 104 {
		t.Fatalf("tracked %d, want 104", got)
	}

	// A record with no facets — what an edge event that credits nothing leaves
	// of a predecessor it is the first to name, and what ApplyEvents' first
	// pass creates ahead of the event that fills it — is absent to every
	// reader: the counts, Vector, CorrelatorList and both checkpoint writers.
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mined := func() (out [][2]string) { // every stored key but the m/ records
		for _, kv := range storeContents(st) {
			if !strings.HasPrefix(kv[0], hex.EncodeToString([]byte("m/"))) {
				out = append(out, kv)
			}
		}
		return out
	}
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	stats, stored := sm.Stats(), mined()
	sm.shardFor(500).ApplyEvents([]partition.Event{{Pred: 500, Succ: 100, Vec: &vsm.Vector{Path: "/shared/file"}, Seq: 5}})
	if fp := sm.shardFor(500).files[500]; fp == nil || fp.have != 0 {
		t.Fatalf("an edge event crediting nothing left the record %+v of its predecessor, want one with no facets", fp)
	}
	if got := sm.TrackedFileCount(); got != 104 {
		t.Errorf("a record with no facets raised the tracked count to %d", got)
	}
	if got := sm.Stats(); got != stats {
		t.Errorf("a record with no facets moved the stats: %+v, were %+v", got, stats)
	}
	if v, ok := sm.Vector(500); ok {
		t.Errorf("a record with no facets has the vector %+v", v)
	}
	if list := sm.CorrelatorList(500); list != nil {
		t.Errorf("a record with no facets has the list %+v", list)
	}
	if delta, err := sm.SaveCheckpoint(st); err != nil || !delta {
		t.Fatalf("SaveCheckpoint wrote a delta: %v, %v", delta, err)
	}
	if got := mined(); !reflect.DeepEqual(got, stored) {
		t.Errorf("a record with no facets reached the store in a delta:\n got  %v\n want %v", got, stored)
	}
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	if got := mined(); !reflect.DeepEqual(got, stored) {
		t.Errorf("a record with no facets reached the store in a full save:\n got  %v\n want %v", got, stored)
	}
}

// TestCorruptCountsRejectedNotPanic: length checks on persisted graph-node
// and window records must be overflow-proof — a huge corrupt count
// (n*elemSize wrapping past 2^32) has to be a decode error, never a
// multi-GiB allocation followed by an index panic. Reachable from a hostile
// replication catch-up snapshot, not just a bad disk.
func TestCorruptCountsRejectedNotPanic(t *testing.T) {
	// Graph node: 12-byte value (total + count only) claiming 2^30 edges;
	// 12*2^30 mod 2^32 == 0 would have passed the old uint32 comparison.
	raw := make([]byte, 12)
	binary.LittleEndian.PutUint32(raw[8:12], 1<<30)
	if _, _, err := decodeGraphNode(raw); err == nil {
		t.Fatal("overflowing edge count accepted")
	}

	// Correlator list: the count is bounded by exactly what the bytes hold
	// (28 per entry) before anything is allocated.
	lraw := make([]byte, 4+28)
	binary.LittleEndian.PutUint32(lraw, 1<<30)
	if _, err := decodeList(lraw); err == nil {
		t.Fatal("overflowing list count accepted")
	}
	binary.LittleEndian.PutUint32(lraw, 2)
	if _, err := decodeList(lraw); err == nil {
		t.Fatal("list count one past the bytes accepted")
	}

	// Window record with the same wrap: 4 bytes claiming 2^30 ids.
	s, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wraw := make([]byte, 4)
	binary.LittleEndian.PutUint32(wraw, 1<<30)
	if err := s.Put([]byte("m/window"), wraw); err != nil {
		t.Fatal(err)
	}
	if _, err := readWindow(s); err == nil {
		t.Fatal("overflowing window count accepted")
	}
}

// TestRepeatedEdgeRejected: a persisted graph node naming one successor twice
// is refused at decode. A map-backed node collapsed the repeat; an edge slice
// would hold both copies and credit them apart, so the mined state could
// never again match an honest miner's. Reachable from a hostile catch-up
// snapshot as well as a bad disk — the farmer package's
// TestCatchupRejectsRepeatedEdge drives that path.
func TestRepeatedEdgeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	sm := NewSharded(cfg)
	sm.FeedBatch(tracegen.HP(2000).MustGenerate().Records)
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	if err := NewSharded(cfg).LoadMerged(st); err != nil {
		t.Fatalf("honest store refused: %v", err)
	}
	repeatFirstEdge(t, st)
	if err := NewSharded(cfg).LoadMerged(st); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("LoadMerged of a node with a repeated edge: %v, want the decode refusal", err)
	}
	if err := NewSharded(DefaultConfig()).LoadMerged(st); err == nil {
		t.Fatal("a 1-shard LoadMerged accepted a node with a repeated edge")
	}
}

// repeatFirstEdge rewrites the first persisted graph node holding two or
// more edges so that its second edge names the first edge's successor again.
func repeatFirstEdge(t *testing.T, st *kvstore.Store) {
	t.Helper()
	var key, val []byte
	st.Scan([]byte(keyPrefixGraph), prefixEnd(keyPrefixGraph), func(k, v []byte) bool {
		if binary.LittleEndian.Uint32(v[8:12]) < 2 {
			return true
		}
		key, val = append(key, k...), append(val, v...)
		return false
	})
	if key == nil {
		t.Fatal("no graph node with two edges to tamper with")
	}
	copy(val[24:28], val[12:16]) // edge 1's To := edge 0's To
	if err := st.Put(key, val); err != nil {
		t.Fatal(err)
	}
}

// TestUnminableValuesRefused: a graph node or a list no miner could have
// written — a total that is not a finite sum of credits, an edge outweighing
// it, a component that is not a number — is a decode error. Installed, the
// first would make F = N_xy/N_x a NaN or an Inf that the validity filter
// keeps (NaN <= max_strength is false), and the last is one already.
func TestUnminableValuesRefused(t *testing.T) {
	node := func(total float64, w float64) []byte {
		return appendGraphValue(nil, total, []graph.Edge{{To: 2, Weight: w}})
	}
	list := func(c Correlator) []byte { return AppendCorrelators(nil, []Correlator{c}) }
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name   string
		prefix string
		val    []byte
		ok     bool
	}{
		{"mined node", keyPrefixGraph, node(2.7, 1.9), true},
		{"edge equal to the total", keyPrefixGraph, node(1, 1), true},
		{"empty node", keyPrefixGraph, appendGraphValue(nil, 0, nil), true},
		{"+Inf total", keyPrefixGraph, node(inf, inf), false},
		{"NaN total", keyPrefixGraph, node(nan, 1), false},
		{"negative total", keyPrefixGraph, node(-1, -2), false},
		{"edge above the total", keyPrefixGraph, node(5e-324, 1e308), false},
		{"NaN weight", keyPrefixGraph, node(1, nan), false},
		{"negative weight", keyPrefixGraph, node(1, -0.5), false},
		{"mined list", keyPrefixList, list(Correlator{File: 2, Degree: 0.8, Sim: 0.75, Freq: 0.9}), true},
		{"NaN degree", keyPrefixList, list(Correlator{File: 2, Degree: nan, Sim: 1, Freq: nan}), false},
		{"+Inf frequency", keyPrefixList, list(Correlator{File: 2, Degree: 0.8, Sim: 1, Freq: inf}), false},
		{"-Inf similarity", keyPrefixList, list(Correlator{File: 2, Degree: 0.8, Sim: -inf, Freq: 0}), false},
	} {
		st, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range goldenStore {
			if err := st.Put(mustUnhex(t, kv[0]), mustUnhex(t, kv[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(key(tc.prefix, 1), tc.val); err != nil {
			t.Fatal(err)
		}
		_, ferr := StoreFingerprint(st, 0x0305)
		lerr := NewSharded(goldenConfig()).LoadMerged(st)
		if tc.ok != (lerr == nil) || (tc.prefix == keyPrefixList && tc.ok != (ferr == nil)) {
			t.Errorf("%s: LoadMerged %v, StoreFingerprint %v, want accepted=%v", tc.name, lerr, ferr, tc.ok)
		}
		st.Close()
	}
}

// TestDeepPathInstallsUncut: a stored vector may hold a 1 MiB path of
// two-byte components. Cut ahead like any other, it would retain 8 MiB of
// string headers that Stats.MemoryBytes does not charge; past vsm.MaxCached
// components LoadMerged installs it uncut, and Sim cuts it per comparison to
// the same result.
func TestDeepPathInstallsUncut(t *testing.T) {
	deep := vsm.Vector{Scalars: []string{"u:7"}, Path: strings.Repeat("a/", trace.MaxPathLen/2)}
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, kv := range goldenStore {
		if err := st.Put(mustUnhex(t, kv[0]), mustUnhex(t, kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(key(keyPrefixVector, 1), vsm.AppendVector(nil, &deep)); err != nil {
		t.Fatal(err)
	}
	var sm *ShardedModel
	// Decoding copies the path once; its components' headers would be 8 MiB.
	const limit = 3 << 20
	grew := allocatedBy(limit, func() {
		sm = NewSharded(goldenConfig())
		err = sm.LoadMerged(st)
	})
	if err != nil || grew > limit {
		t.Fatalf("LoadMerged of a %d-byte path: %v, %d bytes allocated, want under %d", len(deep.Path), err, grew, limit)
	}
	stored, ok := sm.Vector(1)
	if !ok || stored.Path != deep.Path {
		t.Fatal("the deep vector did not install")
	}
	for _, other := range []vsm.Vector{deep, {Scalars: []string{"u:7"}, Path: "/a/b"}, {Path: "/p/a"}} {
		if got, want := vsm.Sim(&stored, &other, vsm.IPA), vsm.Sim(&deep, &other, vsm.IPA); got != want {
			t.Errorf("Sim of the installed vector against %.12q = %v, of the same vector never stored %v", other.Path, got, want)
		}
	}
	sm.FeedBatch(goldenRecords()[1:3]) // file 1 is in the window's reach: it is compared, and mining goes on
	if got := sm.Stats().TrackedFiles; got != 4 {
		t.Fatalf("%d tracked files after mining on, want 4", got)
	}
}
