package hust

import (
	"fmt"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// lone is what the tests of a single MDS read off a cluster of one.
type lone struct {
	Stats     Stats // the server's own
	ClientAvg time.Duration
	MDS       *MDS
}

// replayLone replays tr through one MDS prefetching with policy.
func replayLone(tr *trace.Trace, cfg ReplayConfig, policy string, mc core.Config) (lone, error) {
	cs, c, err := Replay(tr, cfg, Topology{Servers: 1, Policy: policy, Miner: mc})
	if err != nil {
		return lone{}, err
	}
	if len(cs.PerServer) != 1 || cs.AvgResponse != cs.PerServer[0].AvgResponse || cs.Demand != cs.PerServer[0].Demand {
		return lone{}, fmt.Errorf("a cluster of one reports %+v beside its server's %+v", cs, cs.PerServer[0])
	}
	return lone{cs.PerServer[0], cs.ClientAvg, c.Server(0)}, nil
}

// miner is the default FARMER configuration for a trace with or without
// paths.
func miner(hasPaths bool) core.Config {
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(hasPaths)
	return mc
}

func TestMDSConfigValidate(t *testing.T) {
	bad := []MDSConfig{
		{},
		{CacheCapacity: 1},
		{CacheCapacity: 1, Workers: 1},
		{CacheCapacity: 1, Workers: 1, CacheHitTime: 1, StoreReadTime: 1, PrefetchK: -1},
		// ExternalMiner without the mining station to carry its work.
		{CacheCapacity: 1, Workers: 1, CacheHitTime: 1, StoreReadTime: 1, ExternalMiner: true},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultMDSConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMDSHitFasterThanMiss(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	mds, err := NewMDS(eng, cfg, predictors.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	var missResp, hitResp time.Duration
	r := &trace.Record{File: 1}
	mds.Demand(r, func(d time.Duration) { missResp = d })
	eng.Run()
	mds.Demand(r, func(d time.Duration) { hitResp = d })
	eng.Run()
	if missResp != cfg.StoreReadTime {
		t.Fatalf("miss response = %v, want %v", missResp, cfg.StoreReadTime)
	}
	if hitResp != cfg.CacheHitTime {
		t.Fatalf("hit response = %v, want %v", hitResp, cfg.CacheHitTime)
	}
}

// TestMDSResponseMeanMax checks the response accounting: the count, the
// mean exact to the nanosecond, the largest response, and a p95 interpolated
// inside its power-of-two nanosecond bucket.
func TestMDSResponseMeanMax(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	mds, err := NewMDS(eng, cfg, predictors.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	r := &trace.Record{File: 1}
	for range 2 { // a miss, then a hit
		mds.Demand(r, nil)
		eng.Run()
	}
	st := mds.Finish()
	if st.Demand != 2 || st.AvgResponse != (cfg.StoreReadTime+cfg.CacheHitTime)/2 || st.MaxResponse != cfg.StoreReadTime {
		t.Fatalf("demand %d, mean %v, max %v after a %v miss and a %v hit",
			st.Demand, st.AvgResponse, st.MaxResponse, cfg.StoreReadTime, cfg.CacheHitTime)
	}
	// Rank 0.95×2 = 1.9 is 0.9 of the way through the miss's bucket: 2ms
	// lies in [2^20, 2^21) ns, which holds one observation.
	if st.P95Response != 1992294 {
		t.Fatalf("p95 %v, want 2^20ns × 1.9 = 1.992294ms", st.P95Response)
	}
}

func TestMDSPrefetchInstallsIntoCache(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	mc := core.DefaultConfig()
	mc.MaxStrength = 0.0
	fpa := predictors.NewFPA(core.New(mc))
	mds, err := NewMDS(eng, cfg, fpa)
	if err != nil {
		t.Fatal(err)
	}
	// Teach the model 0 -> 1 (same user/dir).
	mk := func(f trace.FileID) *trace.Record {
		return &trace.Record{File: f, UID: 1, PID: 1, Path: "/d/x"}
	}
	// The predictor alone sees file 1, so only a prefetch can cache it.
	for i := 0; i < 5; i++ {
		fpa.Record(mk(0))
		fpa.Record(mk(1))
	}
	// A demand on 0 must now prefetch 1.
	mds.Demand(mk(0), nil)
	eng.Run()
	if !mds.cache.Contains(1) {
		t.Fatal("prefetch did not install file 1")
	}
	if mds.Finish().PrefetchIssued == 0 {
		t.Fatal("no prefetches recorded")
	}
}

func TestReplaySmallTraceRuns(t *testing.T) {
	tr := tracegen.HP(3000).MustGenerate()
	cfg := DefaultReplayConfig()
	res, err := replayLone(tr, cfg, "lru", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Demand != 3000 {
		t.Fatalf("served %d demands", res.Stats.Demand)
	}
	if res.Stats.AvgResponse <= 0 || res.ClientAvg <= res.Stats.AvgResponse {
		t.Fatalf("latencies wrong: %+v clientAvg=%v", res.Stats, res.ClientAvg)
	}
	if res.ClientAvg != res.Stats.AvgResponse+cfg.NetworkRTT {
		t.Fatalf("client average %v is not the response %v plus the RTT", res.ClientAvg, res.Stats.AvgResponse)
	}
	if name := res.MDS.Predictor().Name(); name != "LRU" {
		t.Fatalf("policy %q", name)
	}
}

func TestReplayEmptyTraceErrors(t *testing.T) {
	cfg := DefaultReplayConfig()
	if _, err := replayLone(&trace.Trace{Name: "empty"}, cfg, "lru", core.Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestFARMERBeatsLRUOnRegularTrace is the headline shape: on a workload with
// strong correlation structure, FPA must beat plain LRU on both hit ratio
// and response time.
func TestFARMERBeatsLRUOnRegularTrace(t *testing.T) {
	tr := tracegen.HP(12000).MustGenerate()
	cfg := DefaultReplayConfig()
	lru, err := replayLone(tr, cfg, "lru", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fpa, err := replayLone(tr, cfg, "farmer", miner(true))
	if err != nil {
		t.Fatal(err)
	}
	if fpa.Stats.Cache.HitRatio() <= lru.Stats.Cache.HitRatio() {
		t.Fatalf("FPA hit ratio %.3f <= LRU %.3f",
			fpa.Stats.Cache.HitRatio(), lru.Stats.Cache.HitRatio())
	}
	if fpa.Stats.AvgResponse >= lru.Stats.AvgResponse {
		t.Fatalf("FPA response %v >= LRU %v", fpa.Stats.AvgResponse, lru.Stats.AvgResponse)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := tracegen.RES(4000).MustGenerate()
	cfg := DefaultReplayConfig()
	a, err := replayLone(tr, cfg, "farmer", miner(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayLone(tr, cfg, "farmer", miner(false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestPrefetchBatchCheaper(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	cfg := DefaultReplayConfig()
	single, err := replayLone(tr, cfg, "farmer", miner(true))
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.MDS.PrefetchBatch = true
	batched, err := replayLone(tr, bcfg, "farmer", miner(true))
	if err != nil {
		t.Fatal(err)
	}
	if batched.Stats.Utilization > single.Stats.Utilization {
		t.Fatalf("batching increased utilisation: %.3f vs %.3f",
			batched.Stats.Utilization, single.Stats.Utilization)
	}
}

func TestMDSUnknownFileCreationPath(t *testing.T) {
	eng := sim.New()
	mds, err := NewMDS(eng, DefaultMDSConfig(), predictors.NewNone())
	if err != nil {
		t.Fatal(err)
	}
	// No PopulateStore: the demand must install the metadata on the fly.
	mds.Demand(&trace.Record{File: 7}, nil)
	eng.Run()
	st := mds.Finish()
	if st.StoreReads != 1 || st.Demand != 1 {
		t.Fatalf("creation path stats wrong: %+v", st)
	}
}

func TestMDSStatsCoherence(t *testing.T) {
	tr := tracegen.RES(5000).MustGenerate()
	cfg := DefaultReplayConfig()
	res, err := replayLone(tr, cfg, "farmer", miner(false))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Cache.Lookups != st.Demand {
		t.Fatalf("lookups %d != demand %d", st.Cache.Lookups, st.Demand)
	}
	// A prefetch that completes after the demand path already installed the
	// entry is issued but never inserted, so insertions <= issues.
	if st.Cache.Prefetched > st.PrefetchIssued {
		t.Fatalf("cache prefetched %d > issued %d", st.Cache.Prefetched, st.PrefetchIssued)
	}
	if st.Cache.PrefetchUsed+st.Cache.PrefetchWasted != st.Cache.Prefetched {
		t.Fatalf("prefetch conservation broken: %+v", st.Cache)
	}
	if st.P95Response < st.AvgResponse/4 {
		t.Fatalf("p95 %v implausibly below mean %v", st.P95Response, st.AvgResponse)
	}
	// P95 is a log-bucket upper bound, so it may overshoot the exact max by
	// at most one bucket (2x).
	if st.MaxResponse*2 < st.P95Response {
		t.Fatalf("max %v far below p95 %v", st.MaxResponse, st.P95Response)
	}
}

// TestPrefetchDoesNotStarveDemand: even with heavy prefetch traffic, the
// demand queue's average wait stays below the prefetch-free saturation
// bound because demand has strict priority.
func TestPrefetchDoesNotStarveDemand(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	cfg := DefaultReplayConfig()
	aggressive := cfg
	aggressive.MDS.PrefetchK = 16
	aggressive.MDS.PrefetchBatch = false
	res, err := replayLone(tr, aggressive, "farmer", miner(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AvgDemandWait > 10*aggressive.MDS.StoreReadTime {
		t.Fatalf("demand wait %v exploded under prefetch load", res.Stats.AvgDemandWait)
	}
}

// TestFARMERMDSShardedMatchesSingleLock replays the same trace through an
// MDS whose miner is single-lock and one striped across shards. Sharded
// mining is exactly equivalent, so every simulation outcome — hit ratio,
// prefetches, response times — must be identical.
func TestFARMERMDSShardedMatchesSingleLock(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	replay := func(shards int) Stats {
		mc := miner(tr.HasPaths)
		mc.Shards = shards
		res, err := replayLone(tr, DefaultReplayConfig(), "farmer", mc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	single, sharded := replay(1), replay(4)
	if single != sharded {
		t.Fatalf("sharded miner changed the simulation:\n single  %+v\n sharded %+v", single, sharded)
	}
	if single.PrefetchIssued == 0 {
		t.Fatal("no prefetches issued; comparison is vacuous")
	}
}

// TestFARMERMDSDefaultsShardsToWorkers checks the worker-matched striping.
func TestFARMERMDSDefaultsShardsToWorkers(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	mds, err := NewPolicyMDS(eng, cfg, "farmer", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fpa, ok := mds.Predictor().(*predictors.FPA)
	if !ok {
		t.Fatalf("predictor is %T, want *predictors.FPA", mds.Predictor())
	}
	sm, ok := fpa.Miner().(*core.ShardedModel)
	if !ok {
		t.Fatalf("miner is %T, want *core.ShardedModel", fpa.Miner())
	}
	if sm.Shards() != cfg.Workers {
		t.Fatalf("shards = %d, want %d workers", sm.Shards(), cfg.Workers)
	}
}
