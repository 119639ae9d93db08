package replay

import (
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/prefetch"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func miningHeavyConfig() hust.ReplayConfig {
	cfg := hust.DefaultReplayConfig()
	// Mining-heavy profile: each record costs 1ms of mining CPU — half a
	// store miss — so a synchronous MDS pays it on every demand request.
	cfg.MDS.MineTime = time.Millisecond
	return cfg
}

// TestSyncAsyncBitIdenticalMinedState is the harness's core claim: the same
// trace replayed through the synchronous and asynchronous pipelines — and
// through the paper-exact sequential Model — mines exactly the same state.
func TestSyncAsyncBitIdenticalMinedState(t *testing.T) {
	tr, err := tracegen.HP(8000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)

	cmp, err := Compare(tr, miningHeavyConfig(), mc)
	if err != nil {
		t.Fatal(err)
	}
	ref := MineSequential(tr, mc)
	if cmp.Sync.Fingerprint != ref {
		t.Fatalf("sync replay mined state %x, sequential reference %x", cmp.Sync.Fingerprint, ref)
	}
	if cmp.Async.Fingerprint != ref {
		t.Fatalf("async replay mined state %x, sequential reference %x", cmp.Async.Fingerprint, ref)
	}
}

// TestAsyncNoDemandLatencyRegression is the harness's performance claim
// under the mining-heavy profile: the async pipeline's demand wait is no
// worse than the no-prefetch baseline's, while the synchronous pipeline —
// mining on the demand path — is strictly worse than both.
func TestAsyncNoDemandLatencyRegression(t *testing.T) {
	tr, err := tracegen.HP(8000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)

	cmp, err := Compare(tr, miningHeavyConfig(), mc)
	if err != nil {
		t.Fatal(err)
	}
	base := cmp.Baseline.AvgDemandWait
	syncW := cmp.Sync.Stats.AvgDemandWait
	asyncW := cmp.Async.Stats.AvgDemandWait
	t.Logf("demand AvgWait: baseline=%v sync=%v async=%v", base, syncW, asyncW)
	t.Logf("avg response: baseline=%v sync=%v async=%v",
		cmp.Baseline.AvgResponse, cmp.Sync.Stats.AvgResponse, cmp.Async.Stats.AvgResponse)
	if asyncW > base {
		t.Fatalf("async demand wait %v regressed past the no-prefetch baseline %v", asyncW, base)
	}
	if syncW <= asyncW {
		t.Fatalf("mining-heavy sync wait %v should exceed async wait %v", syncW, asyncW)
	}
	// Prefetching must still be alive and accounted in async mode.
	st := cmp.Async.Stats.PerServer[0]
	if st.PrefetchIssued == 0 {
		t.Fatal("async pipeline issued no prefetches")
	}
	if st.PrefetchIssued != st.PrefetchDone+st.PrefetchDropped {
		t.Fatalf("prefetch accounting: issued %d != done %d + dropped %d",
			st.PrefetchIssued, st.PrefetchDone, st.PrefetchDropped)
	}
	// The async run must beat the synchronous one end-to-end as well.
	if cmp.Async.Stats.AvgResponse >= cmp.Sync.Stats.AvgResponse {
		t.Fatalf("async avg response %v not better than sync %v",
			cmp.Async.Stats.AvgResponse, cmp.Sync.Stats.AvgResponse)
	}
}

// TestBoundedQueueDegradesCoverageNotLatency tightens the prefetch queue to
// one slot under the same mining-heavy profile: drops must appear in the
// stats, and demand wait must stay at the unbounded async level.
func TestBoundedQueueDegradesCoverageNotLatency(t *testing.T) {
	tr, err := tracegen.HP(8000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)

	cfg := miningHeavyConfig()
	cfg.MDS.PrefetchQueue = 1
	cfg.MDS.PrefetchBatch = false
	cfg.ArrivalGap = 100 * time.Microsecond // overload so the queue actually fills
	cmp, err := Compare(tr, cfg, mc)
	if err != nil {
		t.Fatal(err)
	}
	st := cmp.Async.Stats.PerServer[0]
	if st.PrefetchDropped == 0 {
		t.Fatal("1-slot prefetch queue under overload dropped nothing")
	}
	if st.PrefetchIssued != st.PrefetchDone+st.PrefetchDropped {
		t.Fatalf("prefetch accounting: issued %d != done %d + dropped %d",
			st.PrefetchIssued, st.PrefetchDone, st.PrefetchDropped)
	}
	// Dropping prefetches must not corrupt mining.
	if ref := MineSequential(tr, mc); cmp.Async.Fingerprint != ref {
		t.Fatalf("bounded-queue async mined state %x, reference %x", cmp.Async.Fingerprint, ref)
	}
}

// TestConcurrentPipelineMatchesSequentialMine exercises the REAL async
// pipeline — goroutine tap consumers, bounded candidate queue, submit loop —
// against concurrent batch ingestion, and checks the mined state still
// matches the sequential reference exactly (run under -race in CI).
func TestConcurrentPipelineMatchesSequentialMine(t *testing.T) {
	tr, err := tracegen.HP(8000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)
	mc.Shards = 4

	out := RunPipeline(tr, mc, prefetch.Config{K: 4, QueueCap: 4096}, nil)
	if ref := MineSequential(tr, mc); out.Fingerprint != ref {
		t.Fatalf("concurrent pipeline mined state %x, sequential reference %x", out.Fingerprint, ref)
	}
	st := out.Stats
	if st.Events+st.TapDropped != uint64(len(tr.Records)) {
		t.Fatalf("tap accounting: consumed %d + dropped %d != %d records",
			st.Events, st.TapDropped, len(tr.Records))
	}
	if st.Predicted != st.Submitted+st.QueueDropped {
		t.Fatalf("candidate accounting: predicted %d != submitted %d + dropped %d",
			st.Predicted, st.Submitted, st.QueueDropped)
	}
}

// TestCompareIsDeterministic runs the full comparison twice and demands
// identical fingerprints and identical virtual-time latency figures —
// the property that makes the harness usable as a regression gate.
func TestCompareIsDeterministic(t *testing.T) {
	tr, err := tracegen.HP(5000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)

	a, err := Compare(tr, miningHeavyConfig(), mc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(tr, miningHeavyConfig(), mc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sync.Fingerprint != b.Sync.Fingerprint || a.Async.Fingerprint != b.Async.Fingerprint {
		t.Fatal("fingerprints differ between identical runs")
	}
	if a.Async.Stats.AvgDemandWait != b.Async.Stats.AvgDemandWait ||
		a.Sync.Stats.AvgResponse != b.Sync.Stats.AvgResponse ||
		a.Baseline.AvgDemandWait != b.Baseline.AvgDemandWait {
		t.Fatal("virtual-time latency figures differ between identical runs")
	}
}

// PipelineOutcome is one RunPipeline execution: the mined-state fingerprint
// after the concurrent ingest and the pipeline's loss accounting.
type PipelineOutcome struct {
	Fingerprint uint64
	Stats       prefetch.Stats
}

// RunPipeline ingests the trace into a fresh sharded miner in batches while
// a real prefetch.Pipeline (goroutine tap consumers, bounded queue, submit
// loop) runs against it, delivering candidates to sink (discarded when
// nil). It returns after the pipeline has fully drained, so the fingerprint
// and stats are stable.
func RunPipeline(tr *trace.Trace, mc core.Config, pcfg prefetch.Config, sink prefetch.Sink) PipelineOutcome {
	sm := core.NewSharded(mc)
	p := prefetch.Start(sm, sink, pcfg)
	const chunk = 512
	for lo := 0; lo < len(tr.Records); lo += chunk {
		hi := lo + chunk
		if hi > len(tr.Records) {
			hi = len(tr.Records)
		}
		sm.FeedBatch(tr.Records[lo:hi])
	}
	p.Stop()
	return PipelineOutcome{Fingerprint: Fingerprint(sm, tr.FileCount), Stats: p.Stats()}
}
