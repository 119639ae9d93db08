package hust

import (
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// TestAsyncDemandExcludesMineTime pins the core latency contract: with
// synchronous mining a demand request pays MineTime in service; with
// AsyncPrefetch it pays only the cache/store cost, however heavy mining is.
func TestAsyncDemandExcludesMineTime(t *testing.T) {
	for _, async := range []bool{false, true} {
		eng := sim.New()
		cfg := DefaultMDSConfig()
		cfg.MineTime = 10 * time.Millisecond
		cfg.AsyncPrefetch = async
		mds, err := NewFARMERMDS(eng, cfg, nil, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var resp time.Duration
		r := &trace.Record{File: 1, Path: "/a/b"}
		mds.Demand(r, func(d time.Duration) { resp = d })
		eng.Run()
		want := cfg.StoreReadTime
		if !async {
			want += cfg.MineTime
		}
		if resp != want {
			t.Fatalf("async=%v: response = %v, want %v", async, resp, want)
		}
	}
}

// TestAsyncMinesInArrivalOrderIdenticalState replays the same trace through
// a sync and an async FARMER MDS and compares the complete mined state: the
// mining station is FIFO with uniform service, so the async miner must end
// bit-identical to the sync one.
func TestAsyncMinesInArrivalOrderIdenticalState(t *testing.T) {
	tr, err := tracegen.HP(4000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)

	var miners []*core.ShardedModel
	for _, async := range []bool{false, true} {
		cfg := DefaultReplayConfig()
		cfg.MDS.MineTime = 300 * time.Microsecond
		cfg.MDS.AsyncPrefetch = async
		res, err := replayLone(tr, cfg, func(e *sim.Engine) (*MDS, error) {
			return NewFARMERMDS(e, cfg.MDS, nil, mc)
		})
		if err != nil {
			t.Fatal(err)
		}
		fpa, ok := res.MDS.Predictor().(*predictors.FPA)
		if !ok {
			t.Fatal("predictor is not an FPA")
		}
		model, ok := fpa.Miner().(*core.ShardedModel)
		if !ok {
			t.Fatal("FPA does not drive a ShardedModel")
		}
		miners = append(miners, model)
	}
	sy, as := miners[0], miners[1]
	if sy.Fed() != as.Fed() || sy.Fed() != uint64(len(tr.Records)) {
		t.Fatalf("fed counts: sync %d async %d, want %d", sy.Fed(), as.Fed(), len(tr.Records))
	}
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		sl, al := sy.CorrelatorList(id), as.CorrelatorList(id)
		if len(sl) != len(al) {
			t.Fatalf("file %d: list length %d vs %d", f, len(sl), len(al))
		}
		for i := range sl {
			if sl[i] != al[i] {
				t.Fatalf("file %d entry %d: %+v vs %+v", f, i, sl[i], al[i])
			}
		}
	}
}

// TestAsyncPrefetchStillPrefetches checks the async path actually issues
// and completes prefetches that serve demand hits.
func TestAsyncPrefetchStillPrefetches(t *testing.T) {
	tr, err := tracegen.HP(6000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultReplayConfig()
	cfg.MDS.AsyncPrefetch = true
	cfg.MDS.MineTime = 100 * time.Microsecond
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)
	res, err := replayLone(tr, cfg, func(e *sim.Engine) (*MDS, error) {
		return NewFARMERMDS(e, cfg.MDS, nil, mc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefetchIssued == 0 {
		t.Fatal("async MDS issued no prefetches")
	}
	if res.Stats.PrefetchDone != res.Stats.PrefetchIssued {
		t.Fatalf("unbounded queue lost prefetches: done %d of %d",
			res.Stats.PrefetchDone, res.Stats.PrefetchIssued)
	}
	if res.Stats.Cache.PrefetchHits == 0 {
		t.Fatal("no demand hit was served by an async prefetch")
	}
	if res.Stats.MineAvgWait < 0 {
		t.Fatal("negative mining wait")
	}
}

// TestPrefetchQueueBoundDropsOldest bounds the prefetch backlog and checks
// drop accounting conservation after a drained run.
func TestPrefetchQueueBoundDropsOldest(t *testing.T) {
	tr, err := tracegen.HP(6000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultReplayConfig()
	cfg.MDS.AsyncPrefetch = true
	cfg.MDS.PrefetchQueue = 1
	cfg.MDS.PrefetchBatch = false          // every prefetch is a full store read
	cfg.ArrivalGap = 50 * time.Microsecond // overload: arrivals outpace service
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(tr.HasPaths)
	res, err := replayLone(tr, cfg, func(e *sim.Engine) (*MDS, error) {
		return NewFARMERMDS(e, cfg.MDS, nil, mc)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PrefetchDropped == 0 {
		t.Fatal("overloaded 1-slot prefetch queue dropped nothing")
	}
	if st.PrefetchIssued != st.PrefetchDone+st.PrefetchDropped {
		t.Fatalf("conservation violated: issued %d != done %d + dropped %d",
			st.PrefetchIssued, st.PrefetchDone, st.PrefetchDropped)
	}
}

// TestMDSConfigValidateAsyncFields covers the new knobs.
func TestMDSConfigValidateAsyncFields(t *testing.T) {
	base := DefaultMDSConfig()
	for name, mut := range map[string]func(*MDSConfig){
		"negative mine time":      func(c *MDSConfig) { c.MineTime = -1 },
		"negative miner workers":  func(c *MDSConfig) { c.MinerWorkers = -1 },
		"negative prefetch queue": func(c *MDSConfig) { c.PrefetchQueue = -1 },
	} {
		c := base
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	c := base
	c.MineTime = time.Millisecond
	c.AsyncPrefetch = true
	c.MinerWorkers = 8
	c.PrefetchQueue = 64
	if err := c.Validate(); err != nil {
		t.Fatalf("valid async config rejected: %v", err)
	}
}

// stubPredictor always predicts the same candidate set.
type stubPredictor struct{ cands []trace.FileID }

func (stubPredictor) Name() string                               { return "stub" }
func (stubPredictor) Record(*trace.Record)                       {}
func (p stubPredictor) Predict(trace.FileID, int) []trace.FileID { return p.cands }

// TestBatchLeaderDropRepricesFollower pins the batched-prefetch pricing
// against bounded-queue drops: when the member that would have paid the
// batch's store I/O is dropped, the surviving member must pay it at service
// entry instead of riding an I/O that never happened.
func TestBatchLeaderDropRepricesFollower(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	cfg.Workers = 1
	cfg.PrefetchK = 3
	cfg.PrefetchBatch = true
	cfg.PrefetchQueue = 1
	mds, err := NewMDS(eng, cfg, nil, stubPredictor{cands: []trace.FileID{10, 11, 12}})
	if err != nil {
		t.Fatal(err)
	}
	// The demand miss (2ms) occupies the single worker; the three batch
	// prefetches queue behind it and the 1-slot bound drops the first two —
	// including the would-be I/O leader.
	mds.Demand(&trace.Record{File: 1}, nil)
	eng.Run()
	st := mds.Finish()
	if st.PrefetchIssued != 3 || st.PrefetchDropped != 2 || st.PrefetchDone != 1 {
		t.Fatalf("prefetch accounting: issued %d dropped %d done %d, want 3/2/1",
			st.PrefetchIssued, st.PrefetchDropped, st.PrefetchDone)
	}
	// Demand (2ms) + surviving prefetch repriced to a full store read (2ms).
	if got, want := eng.Now(), 2*cfg.StoreReadTime; got != want {
		t.Fatalf("drained at %v, want %v (survivor must pay the store read)", got, want)
	}
}

// TestSyncPrefetchIssueDelayedByMineTime pins the sync leg's timing model:
// with modeled mining cost, predictions are issued when the demand request
// completes (wait + service, mining included), never instantly at arrival
// (which would flatter sync in the comparison).
func TestSyncPrefetchIssueDelayedByMineTime(t *testing.T) {
	eng := sim.New()
	cfg := DefaultMDSConfig()
	cfg.Workers = 2
	cfg.MineTime = 10 * time.Millisecond
	mds, err := NewMDS(eng, cfg, nil, stubPredictor{cands: []trace.FileID{7}})
	if err != nil {
		t.Fatal(err)
	}
	// Demand miss: completes at StoreReadTime + MineTime = 12ms.
	mds.Demand(&trace.Record{File: 1}, nil)
	eng.At(11*time.Millisecond, func() {
		if mds.prefetchSent != 0 {
			t.Errorf("prefetch issued %d at t=11ms, before the request (and its mining) completed", mds.prefetchSent)
		}
	})
	eng.Run()
	if mds.prefetchSent != 1 {
		t.Fatalf("prefetch issued %d after drain, want 1", mds.prefetchSent)
	}
	// MineTime=0 keeps the legacy issue-at-arrival behavior.
	eng2 := sim.New()
	cfg.MineTime = 0
	mds2, err := NewMDS(eng2, cfg, nil, stubPredictor{cands: []trace.FileID{7}})
	if err != nil {
		t.Fatal(err)
	}
	mds2.Demand(&trace.Record{File: 1}, nil)
	if mds2.prefetchSent != 1 {
		t.Fatalf("legacy sync mode issued %d prefetches at arrival, want 1", mds2.prefetchSent)
	}
}
