package hust

import (
	"reflect"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func globalTestSetup(t *testing.T) (*ReplayConfig, core.Config) {
	t.Helper()
	cfg := DefaultReplayConfig()
	cfg.MDS.MineTime = time.Millisecond
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(true)
	return &cfg, mc
}

// TestGlobalClusterMinesGlobalModel: the cluster's merged model must equal
// the paper-exact sequential Model on the same trace, list for list, and
// the global read surface (CorrelatorList/Predict/GlobalMiner) must serve
// it. internal/replay re-asserts this via fingerprints; here it is checked
// structurally, with the traffic accounting alongside.
func TestGlobalClusterMinesGlobalModel(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	cfg, mc := globalTestSetup(t)
	cs, c, err := ReplayGlobalCluster(tr, *cfg, 4, HashPartitioner, mc, DefaultGlobalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A slow interconnect delays delivery (head-of-line, in order) but must
	// never reorder it: the mined model is identical at any NetDelay.
	slow := DefaultGlobalConfig()
	slow.NetDelay = 5 * time.Millisecond
	_, cSlow, err := ReplayGlobalCluster(tr, *cfg, 4, HashPartitioner, mc, slow)
	if err != nil {
		t.Fatal(err)
	}
	if c.Server(3) == nil {
		t.Fatal("cluster shape wrong: no fourth server")
	}
	g := cs.Global
	if g == nil {
		t.Fatal("no global stats from a global cluster")
	}
	if g.Fed != uint64(len(tr.Records)) || g.Events == 0 {
		t.Fatalf("dispatcher accounting: %+v", g)
	}
	if g.CrossEvents == 0 || g.CrossRatio <= 0 || g.CrossRatio >= 1 {
		t.Fatalf("cross traffic accounting: %+v", g)
	}
	if g.CrossPrefetches == 0 {
		t.Fatal("no cross-server prefetch routing under hash placement")
	}
	if g.MailboxDropped != 0 {
		t.Fatalf("%d mailbox drops at default bound", g.MailboxDropped)
	}

	ref := core.New(mc)
	ref.FeedTrace(tr)
	ens := c.GlobalMiner()
	if ens == nil || ens.Fed() != uint64(len(tr.Records)) {
		t.Fatal("global ensemble missing or short")
	}
	// The per-server predictor surface is read-only: Record must not feed
	// the global model (the cluster dispatcher already did).
	p := c.Server(0).Predictor()
	if p.Name() != "FARMER-global" {
		t.Fatalf("predictor %q", p.Name())
	}
	p.Record(&tr.Records[0])
	if ens.Fed() != uint64(len(tr.Records)) {
		t.Fatal("predictor Record fed the global model")
	}
	var owned trace.FileID
	for f := 0; f < tr.FileCount; f++ {
		if HashPartitioner(trace.FileID(f), 4) == 0 {
			owned = trace.FileID(f)
			break
		}
	}
	if got := p.Predict(owned, 4); !reflect.DeepEqual(got, c.Predict(owned, 4)) {
		t.Fatal("server predictor disagrees with the global model for a file it owns")
	}
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		if !reflect.DeepEqual(ref.CorrelatorList(id), c.CorrelatorList(id)) {
			t.Fatalf("file %d: cluster list diverges from sequential reference", f)
		}
		if !reflect.DeepEqual(ref.Predict(id, 4), c.Predict(id, 4)) {
			t.Fatalf("file %d: cluster prediction diverges", f)
		}
		if !reflect.DeepEqual(ref.CorrelatorList(id), cSlow.CorrelatorList(id)) {
			t.Fatalf("file %d: slow-interconnect cluster diverges (delivery reordered?)", f)
		}
	}
}

// TestGlobalClusterOutperformsPerPartition: under mining-heavy load and
// hash placement, global mining must beat the per-partition baseline on
// mean response (mining leaves the demand path AND prefetches route to the
// successor's server) without regressing demand wait.
func TestGlobalClusterOutperformsPerPartition(t *testing.T) {
	tr := tracegen.HP(10000).MustGenerate()
	cfg, mc := globalTestSetup(t)

	local, err := ReplayCluster(tr, *cfg, 4, HashPartitioner, func(i int, e *sim.Engine) (*MDS, error) {
		lc := mc
		lc.Shards = 1
		return NewFARMERMDS(e, cfg.MDS, nil, lc)
	})
	if err != nil {
		t.Fatal(err)
	}
	global, _, err := ReplayGlobalCluster(tr, *cfg, 4, HashPartitioner, mc, DefaultGlobalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if global.AvgResponse >= local.AvgResponse {
		t.Fatalf("global response %v not better than per-partition %v", global.AvgResponse, local.AvgResponse)
	}
	if global.AvgDemandWait > local.AvgDemandWait {
		t.Fatalf("global demand wait %v worse than per-partition %v", global.AvgDemandWait, local.AvgDemandWait)
	}
}

// TestGlobalClusterValidation covers construction errors and the inert
// global surface of a per-partition cluster.
func TestGlobalClusterValidation(t *testing.T) {
	_, mc := globalTestSetup(t)
	bad := mc
	bad.Weight = 2
	if _, err := NewGlobalCluster(sim.New(), 4, nil, DefaultMDSConfig(), bad, DefaultGlobalConfig()); err == nil {
		t.Fatal("invalid miner config accepted")
	}
	if _, err := NewGlobalCluster(sim.New(), 0, nil, DefaultMDSConfig(), mc, DefaultGlobalConfig()); err == nil {
		t.Fatal("zero servers accepted")
	}

	// A per-partition cluster has no global model to read.
	c, err := NewCluster(sim.New(), 2, nil, clusterFactory(DefaultMDSConfig(), true))
	if err != nil {
		t.Fatal(err)
	}
	if c.GlobalMiner() != nil || c.CorrelatorList(1) != nil || c.Predict(1, 4) != nil {
		t.Fatal("per-partition cluster exposes a global model")
	}
}

// TestGlobalClusterTinyMailboxSheds: overflow is counted and the run still
// completes — fidelity degrades, the demand path does not.
func TestGlobalClusterTinyMailboxSheds(t *testing.T) {
	tr := tracegen.HP(4000).MustGenerate()
	cfg, mc := globalTestSetup(t)
	gcfg := DefaultGlobalConfig()
	gcfg.MailboxCap = 2
	cs, _, err := ReplayGlobalCluster(tr, *cfg, 4, GroupPartitioner, mc, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Demand != uint64(len(tr.Records)) {
		t.Fatalf("served %d of %d demands", cs.Demand, len(tr.Records))
	}
	if cs.Global.MailboxDropped == 0 {
		t.Fatal("2-slot mailboxes dropped nothing")
	}
}
