package core

import (
	"fmt"
	"runtime"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// BenchmarkFeed measures the per-request cost of the full four-stage
// pipeline (§3.3's efficiency claim: O(window + list) per access).
func BenchmarkFeed(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	m := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Feed(&tr.Records[i%len(tr.Records)])
	}
}

// BenchmarkFeedFileIDs is BenchmarkFeed on feed_sync's shape: a path-less
// RES trace under the file-id mask, where every file's vector holds an item
// of its own (its id), so nothing keyed by (user, process, host) is shared.
func BenchmarkFeedFileIDs(b *testing.B) {
	tr := tracegen.RES(50000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.AllFileIDMask
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Feed(&tr.Records[i%len(tr.Records)])
	}
}

// BenchmarkFeedDirty is BenchmarkFeed with dirty tracking on, as in every
// farmerd that has checkpointed once: each record marks one vector and up to
// a window of graph nodes and lists for the next delta. (Tracking starts
// with a save, so this model has mined the trace once before the clock
// starts.) The two should stay within a tenth of each other.
func BenchmarkFeedDirty(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	sm := NewSharded(DefaultConfig())
	sm.FeedBatch(tr.Records)
	st, err := kvstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil { // a completed save turns dirty tracking on
		b.Fatal(err)
	}
	m := sm.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Feed(&tr.Records[i%len(tr.Records)])
	}
}

// BenchmarkPredict measures prefetch-candidate lookup on a mined model.
func BenchmarkPredict(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	m := New(DefaultConfig())
	m.FeedTrace(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(trace.FileID(i%tr.FileCount), 4)
	}
}

// BenchmarkFeedTraceSingle is the single-lock baseline for the sharded
// ingestion benchmarks: one full-trace mine per iteration.
func BenchmarkFeedTraceSingle(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(DefaultConfig())
		m.FeedTrace(tr)
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFeedTraceSharded mines the same trace through the N-way striped
// ensemble's batch path; compare records/s against BenchmarkFeedTraceSingle
// for the parallel speedup.
func BenchmarkFeedTraceSharded(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	shardCounts := []int{2, 4, 8}
	if p := runtime.GOMAXPROCS(0); p > 8 {
		shardCounts = append(shardCounts, p)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := NewSharded(cfg)
				m.FeedTraceParallel(tr)
			}
			b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkFeedNoSemantics feeds at p = 0, where R(x,y) is pure frequency.
// It does not isolate the sequence-mining cost: vsm.Sim is still computed
// for every evaluated pair, because the result is stored in Correlator.Sim
// (and fingerprinted) whatever its weight in the degree. Against
// BenchmarkFeed it shows only what the p-dependent list churn costs.
func BenchmarkFeedNoSemantics(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Weight = 0
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Feed(&tr.Records[i%len(tr.Records)])
	}
}

// workingSetBatch is the contract workload's FeedBatch size.
const workingSetBatch = 1024

// workingSet returns the trace bench/workload.go's ingest_batch generates (HP
// with ten times the groups and noise files, seed 7) and a 2-shard ensemble
// that has mined it once in workingSetBatch-record batches: every file
// tracked, every list and edge table grown.
func workingSet() (*ShardedModel, *trace.Trace) { return population(10) }

// population is workingSet at scale times HP's groups and noise files, over
// scale/10 times its records: population(10) is the working set itself.
func population(scale int) (*ShardedModel, *trace.Trace) {
	p := tracegen.HP(192 * workingSetBatch * scale / 10)
	p.Groups *= scale
	p.NoiseFiles *= scale
	p.Seed = 7
	tr := p.MustGenerate()
	cfg := DefaultConfig()
	cfg.Shards = 2
	sm := NewSharded(cfg)
	for lo := 0; lo < len(tr.Records); lo += workingSetBatch {
		sm.FeedBatch(tr.Records[lo : lo+workingSetBatch])
	}
	return sm, tr
}

// BenchmarkFeedBatchWorkingSet is the batch path at the working set the
// contract workload has: the trace bench/workload.go's ingest_batch generates
// (HP with ten times the groups and noise files: ~39k tracked files, 16 MB of
// mined state), 2 shards, 1 024-record FeedBatches, warmed one pass. Every
// other benchmark in internal/ mines HP(50000) — 5.4k files, which fit in
// cache: on it the misses an event walks through (map group, record, edge
// table, list, stored path) cost nothing, which hid PR 23's whole subject and
// is why PR 21's last-tuple cache and PR 22's digest key read as noise. The
// tuples metric is the distinct (uid, pid, host) count: until PR 25 a table
// of one scalar list per tuple, bounded at 16 384, sat on this path, and the
// count said how close the profile ran to that bound. Vectors hold values
// now: it is reported for comparison with earlier runs and bounds nothing.
func BenchmarkFeedBatchWorkingSet(b *testing.B) {
	const batch = workingSetBatch
	sm, tr := workingSet()
	tuples := make(map[[3]uint32]struct{})
	for i := range tr.Records {
		r := &tr.Records[i]
		tuples[[3]uint32{r.UID, r.PID, r.Host}] = struct{}{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i % len(tr.Records)
		sm.FeedBatch(tr.Records[lo:min(lo+batch, lo+b.N-i)])
	}
	b.StopTimer()
	b.ReportMetric(float64(sm.Stats().TrackedFiles), "files")
	b.ReportMetric(float64(len(tuples)), "tuples")
}
