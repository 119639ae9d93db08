package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// Checkpoint cost, full rewrite vs incremental delta, on the same mined
// ensemble. Every store is a write-ahead log on disk, as farmerd's is, so a
// save pays for encoding, checksumming and writing its frames. The custom
// metrics surface the store-level cost (what actually hits the WAL) next to
// the wall-clock cost: an incremental checkpoint's puts/op and ckpt-B/op track
// the dirty set, the full rewrite's track the model.

func benchCheckpointModel(b *testing.B) *ShardedModel {
	b.Helper()
	tr := tracegen.HP(20000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	sm.FeedBatch(tr.Records)
	return sm
}

// benchStore opens a file-backed store in the benchmark's temporary directory.
func benchStore(b *testing.B) *kvstore.Store {
	b.Helper()
	s, err := kvstore.Open(filepath.Join(b.TempDir(), "store.wal"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkCheckpointSaveFull(b *testing.B) {
	sm := benchCheckpointModel(b)
	s := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cost kvstore.WriteStats
	for i := 0; i < b.N; i++ {
		pre := s.WriteStats()
		if err := sm.SaveMerged(s); err != nil {
			b.Fatal(err)
		}
		cost = statsDelta(pre, s.WriteStats())
		b.StopTimer()
		if err := s.Compact(); err != nil { // as farmerd does after a full save
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(cost.Bytes), "ckpt-B/op")
	b.ReportMetric(float64(cost.Puts), "puts/op")
}

func BenchmarkCheckpointSaveIncremental(b *testing.B) {
	sm := benchCheckpointModel(b)
	tr := tracegen.HP(20000).MustGenerate()
	s := benchStore(b)
	if err := sm.SaveMerged(s); err != nil {
		b.Fatal(err) // bind dirty tracking to the store
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cost kvstore.WriteStats
	for i := 0; i < b.N; i++ {
		// Dirty a small working set between checkpoints; the refeed is the
		// workload's cost, not the checkpoint's, so it runs off the clock.
		b.StopTimer()
		sm.FeedBatch(tr.Records[(i*32)%(len(tr.Records)-32) : (i*32)%(len(tr.Records)-32)+32])
		if i%1024 == 1023 { // bound the log: tens of thousands of deltas run a second
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		pre := s.WriteStats()
		inc, err := sm.SaveCheckpoint(s)
		if err != nil {
			b.Fatal(err)
		}
		if !inc {
			b.Fatal("checkpoint fell back to a full rewrite")
		}
		cost = statsDelta(pre, s.WriteStats())
	}
	b.ReportMetric(float64(cost.Bytes), "ckpt-B/op")
	b.ReportMetric(float64(cost.Puts), "puts/op")
}

// deltaChunks is the contract workload's save segment: a delta checkpoint
// after every 8 FeedBatches of workingSetBatch records.
const deltaChunks = 8

// BenchmarkCheckpointSaveDeltaWorkingSet is a delta checkpoint the way the
// contract workload's save segment takes one: the working set's ensemble
// (HP×10, 2 shards, ~39k files), deltaChunks batches fed off the clock
// between saves, a WAL on disk. puts/op and ckpt-B/op average every save;
// CI fails the run when allocs/op exceeds 0.05 × puts/op.
func BenchmarkCheckpointSaveDeltaWorkingSet(b *testing.B) {
	sm, tr := workingSet()
	benchDeltaSaves(b, sm, tr)
}

// BenchmarkDeltaSaveByPopulation is the same delta save at two
// populations — the working set (x10: ~39k files) and ten times it (x100:
// HP×100 over ten times the records, ~380k files) — with the same
// deltaChunks batches between saves, so the dirty set stays about the size
// it is and only what it is saved into grows: whether a delta's cost bends
// with the population. Each ensemble is mined once per process, and one is
// held at a time (x100 is about 0.9 GB): its name matches no CI benchmark
// pattern, so it runs only when asked for by name.
func BenchmarkDeltaSaveByPopulation(b *testing.B) {
	for _, scale := range []int{10, 100} {
		b.Run(fmt.Sprintf("x%d", scale), func(b *testing.B) {
			if pop.scale != scale {
				pop.sm, pop.tr = nil, nil // let the last one go before mining the next
				pop.sm, pop.tr = population(scale)
				pop.scale = scale
			}
			benchDeltaSaves(b, pop.sm, pop.tr)
			b.ReportMetric(float64(pop.sm.Stats().TrackedFiles), "files")
		})
	}
}

// pop keeps BenchmarkDeltaSaveByPopulation's ensemble between the
// calls the testing package makes of one sub-benchmark.
var pop struct {
	scale int
	sm    *ShardedModel
	tr    *trace.Trace
}

// benchDeltaSaves binds sm to a fresh store with a full save, then times
// delta saves, each after deltaChunks batches of tr fed off the clock.
func benchDeltaSaves(b *testing.B, sm *ShardedModel, tr *trace.Trace) {
	s := benchStore(b)
	if err := sm.SaveMerged(s); err != nil {
		b.Fatal(err) // bind dirty tracking to the store
	}
	next := 0
	var cost kvstore.WriteStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range deltaChunks {
			sm.FeedBatch(tr.Records[next : next+workingSetBatch])
			next = (next + workingSetBatch) % len(tr.Records)
		}
		if i%16 == 15 { // bound the log, as LocalMiner's periodic Compact does
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		pre := s.WriteStats()
		if inc, err := sm.SaveCheckpoint(s); err != nil || !inc {
			b.Fatalf("delta checkpoint: incremental=%v, %v", inc, err)
		}
		d := statsDelta(pre, s.WriteStats())
		cost.Puts += d.Puts
		cost.Bytes += d.Bytes
	}
	b.ReportMetric(float64(cost.Bytes)/float64(b.N), "ckpt-B/op")
	b.ReportMetric(float64(cost.Puts)/float64(b.N), "puts/op")
}

// BenchmarkCheckpointOpenWorkingSet is a restart's first step at the contract
// workload's working set: Open recovering a compacted full checkpoint (~116k
// records) from its WAL.
func BenchmarkCheckpointOpenWorkingSet(b *testing.B) {
	sm, _ := workingSet()
	path := filepath.Join(b.TempDir(), "store.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := errors.Join(sm.SaveMerged(s), s.Compact(), s.Close()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s, err = kvstore.Open(path); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(s.Len()), "keys")
}
