package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

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
			sm, tr := popAt(scale)
			benchDeltaSaves(b, sm, tr)
			b.ReportMetric(float64(sm.Stats().TrackedFiles), "files")
		})
	}
}

// pop keeps the by-population benchmarks' ensemble between the calls the
// testing package makes of one sub-benchmark.
var pop struct {
	scale int
	sm    *ShardedModel
	tr    *trace.Trace
}

// popAt returns population(scale), mined once per process; one is held at a
// time.
func popAt(scale int) (*ShardedModel, *trace.Trace) {
	if pop.scale != scale {
		pop.sm, pop.tr = nil, nil // let the last one go before mining the next
		pop.sm, pop.tr = population(scale)
		pop.scale = scale
	}
	return pop.sm, pop.tr
}

// stallBatches is how many FeedBatches each half of
// BenchmarkSaveStallByPopulation's ingest phase times.
const stallBatches = 256

// BenchmarkSaveStallByPopulation is what a checkpoint costs the ingest beside
// it, at the working set (x10) and ten times it (x100). An op is a full save
// and then a delta, each after a forced GC and timed while a probe takes the
// dispatch lock every ~50 µs; then stallBatches FeedBatches of
// workingSetBatch records with no checkpoint, a checkpoint of those, and as
// many FeedBatches with a checkpoint started on another goroutine every
// deltaChunks of them (unless one still runs; a Compact every 16th, as
// LocalMiner does), so a delta covers what it does in the contract
// workload's save segment in either build. It reports, over all ops, the
// longest wait to take the dispatch lock during a full save (full-wait-ms)
// and during a delta (delta-wait-ms), the longest full save (full-ms), and
// the FeedBatch p99 with checkpoints beside it (p99-saving-ms, over
// saves-beside/op of them; max-saving-ms is the slowest) and without
// (p99-idle-ms). x100 holds about 1 GB, so its name matches no CI -bench
// pattern: it runs only when asked for by name.
func BenchmarkSaveStallByPopulation(b *testing.B) {
	for _, scale := range []int{10, 100} {
		b.Run(fmt.Sprintf("x%d", scale), func(b *testing.B) {
			sm, tr := popAt(scale)
			st := benchStore(b)
			next := 0
			feed := func() time.Duration {
				start := time.Now()
				sm.FeedBatch(tr.Records[next : next+workingSetBatch])
				next = (next + workingSetBatch) % len(tr.Records)
				return time.Since(start)
			}
			var fullWait, deltaWait, full time.Duration
			var saving, idle []time.Duration
			beside := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC() // each save starts clean: its waits are its own
				fullWait = max(fullWait, lockWait(sm, func() {
					start := time.Now()
					if err := sm.SaveMerged(st); err != nil {
						b.Fatal(err)
					}
					full = max(full, time.Since(start))
				}))
				for range deltaChunks {
					feed()
				}
				runtime.GC()
				deltaWait = max(deltaWait, lockWait(sm, func() {
					if inc, err := sm.SaveCheckpoint(st); err != nil || !inc {
						b.Fatalf("delta checkpoint: incremental=%v, %v", inc, err)
					}
				}))
				for range stallBatches {
					idle = append(idle, feed())
				}
				if _, err := sm.SaveCheckpoint(st); err != nil { // the idle batches' delta, off the record
					b.Fatal(err)
				}
				kick, done := make(chan struct{}, 1), make(chan error, 1)
				go func() {
					for n := 1; ; n++ {
						if _, more := <-kick; !more {
							beside += n - 1
							done <- nil
							return
						}
						_, err := sm.SaveCheckpoint(st)
						if err == nil && n%16 == 0 {
							err = st.Compact()
						}
						if err != nil {
							done <- err
							return
						}
					}
				}()
				for j := range stallBatches {
					if j%deltaChunks == 0 {
						select {
						case kick <- struct{}{}:
						default: // the last one still runs
						}
					}
					saving = append(saving, feed())
				}
				close(kick)
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(fullWait), "full-wait-ms")
			b.ReportMetric(ms(deltaWait), "delta-wait-ms")
			b.ReportMetric(ms(full), "full-ms")
			b.ReportMetric(ms(p99(saving)), "p99-saving-ms")
			b.ReportMetric(ms(slices.Max(saving)), "max-saving-ms")
			b.ReportMetric(ms(p99(idle)), "p99-idle-ms")
			b.ReportMetric(float64(beside)/float64(b.N), "saves-beside/op")
		})
	}
}

// lockWait runs fn while a probe takes sm's dispatch lock every ~50 µs, and
// returns the longest the probe waited for it.
func lockWait(sm *ShardedModel, fn func()) time.Duration {
	stop, longest := make(chan struct{}), make(chan time.Duration)
	go func() {
		var worst time.Duration
		for {
			select {
			case <-stop:
				longest <- worst
				return
			default:
			}
			start := time.Now()
			sm.dmu.Lock()
			worst = max(worst, time.Since(start))
			sm.dmu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	fn()
	close(stop)
	return <-longest
}

// p99 is the 99th percentile of ds, which it sorts.
func p99(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[(len(ds)*99+99)/100-1]
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
// workload's working set: Open recovering a full checkpoint (~116k records,
// one put per key) from its WAL.
func BenchmarkCheckpointOpenWorkingSet(b *testing.B) {
	sm, _ := workingSet()
	path := filepath.Join(b.TempDir(), "store.wal")
	s, err := kvstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := errors.Join(sm.SaveMerged(s), s.Close()); err != nil {
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
