package core

import (
	"fmt"
	"runtime"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
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

// BenchmarkFeedBatchWorkingSet is the batch path at the working set the
// contract workload has: the trace bench/workload.go's ingest_batch generates
// (HP with ten times the groups and noise files: ~39k tracked files, 16 MB of
// mined state), 2 shards, 1 024-record FeedBatches, warmed one pass. Every
// other benchmark in internal/ mines HP(50000) — 5.4k files, which fit in
// cache: on it the misses an event walks through (map group, record, edge
// table, list, stored path) cost nothing, which hid PR 23's whole subject and
// is why PR 21's last-tuple cache and PR 22's digest key read as noise. The
// tuples metric is the distinct (uid, pid, host) count against vsm.maxTokens
// (16 384): past that bound every record of a new tuple allocates its scalar
// list, and a profile that crosses it is measuring something else.
func BenchmarkFeedBatchWorkingSet(b *testing.B) {
	const batch = 1024
	p := tracegen.HP(192 * batch)
	p.Groups *= 10
	p.NoiseFiles *= 10
	p.Seed = 7
	tr := p.MustGenerate()
	tuples := make(map[[3]uint32]struct{})
	for i := range tr.Records {
		r := &tr.Records[i]
		tuples[[3]uint32{r.UID, r.PID, r.Host}] = struct{}{}
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	sm := NewSharded(cfg)
	for lo := 0; lo < len(tr.Records); lo += batch { // warm: every file tracked, every list and edge table grown
		sm.FeedBatch(tr.Records[lo : lo+batch])
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
