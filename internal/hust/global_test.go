package hust

import (
	"reflect"
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/partition"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// replayGlobal replays tr through n servers mining one model under gcfg.
func replayGlobal(tr *trace.Trace, cfg ReplayConfig, n int, part Partitioner, mc core.Config, gcfg GlobalConfig) (ClusterStats, *Cluster, error) {
	gcfg.Miner = mc
	return Replay(tr, cfg, Topology{Servers: n, Partition: part, Global: &gcfg})
}

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
// the global read surface (GlobalMiner) must serve it. internal/replay re-asserts this via fingerprints; here it is checked
// structurally, with the traffic accounting alongside.
func TestGlobalClusterMinesGlobalModel(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	cfg, mc := globalTestSetup(t)
	cs, c, err := replayGlobal(tr, *cfg, 4, HashPartitioner, mc, DefaultGlobalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A slow interconnect delays delivery (head-of-line, in order) but must
	// never reorder it: the mined model is identical at any NetDelay.
	slow := DefaultGlobalConfig()
	slow.NetDelay = 5 * time.Millisecond
	_, cSlow, err := replayGlobal(tr, *cfg, 4, HashPartitioner, mc, slow)
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
	if got := p.Predict(owned, 4); !reflect.DeepEqual(got, ens.Predict(owned, 4)) {
		t.Fatal("server predictor disagrees with the global model for a file it owns")
	}
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		if !reflect.DeepEqual(ref.CorrelatorList(id), ens.CorrelatorList(id)) {
			t.Fatalf("file %d: cluster list diverges from sequential reference", f)
		}
		if !reflect.DeepEqual(ref.Predict(id, 4), ens.Predict(id, 4)) {
			t.Fatalf("file %d: cluster prediction diverges", f)
		}
		if !reflect.DeepEqual(ref.CorrelatorList(id), cSlow.GlobalMiner().CorrelatorList(id)) {
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

	local, _, err := Replay(tr, *cfg, Topology{Servers: 4, Partition: HashPartitioner, Factory: func(e *sim.Engine) (*MDS, error) {
		lc := mc
		lc.Shards = 1
		return NewFARMERMDS(e, cfg.MDS, nil, lc)
	}})
	if err != nil {
		t.Fatal(err)
	}
	global, _, err := replayGlobal(tr, *cfg, 4, HashPartitioner, mc, DefaultGlobalConfig())
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
	if _, err := newCluster(sim.New(), DefaultMDSConfig(), Topology{Servers: 4, Global: &GlobalConfig{Miner: bad}}); err == nil {
		t.Fatal("invalid miner config accepted")
	}
	if _, err := newCluster(sim.New(), DefaultMDSConfig(), Topology{Global: &GlobalConfig{Miner: mc}}); err == nil {
		t.Fatal("zero servers accepted")
	}

	// A per-partition cluster has no global model to read.
	c, err := newCluster(sim.New(), DefaultMDSConfig(), Topology{Servers: 2, Factory: clusterFactory(DefaultMDSConfig(), true)})
	if err != nil {
		t.Fatal(err)
	}
	if c.GlobalMiner() != nil {
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
	cs, _, err := replayGlobal(tr, *cfg, 4, GroupPartitioner, mc, gcfg)
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

// seqs drains what has arrived at now and returns the sequence numbers.
func seqs(b *eventQueue, now time.Duration) (out []uint64) {
	for _, ev := range b.popDue(now) {
		out = append(out, ev.Seq)
	}
	return out
}

// TestEventQueueFIFOAndDrain: events come back out in push order, a drained
// queue is empty, and nothing is dropped below the bound.
func TestEventQueueFIFOAndDrain(t *testing.T) {
	var b eventQueue
	for i := 1; i <= 5; i++ {
		b.push(8, partition.Event{Seq: uint64(i)}, 0)
	}
	if got := seqs(&b, 0); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("drained %v, want 1..5 in push order", got)
	}
	if got := seqs(&b, time.Hour); got != nil || b.dropped != 0 {
		t.Fatalf("queue not empty after the drain (%v), or dropped %d below the bound", got, b.dropped)
	}
}

// TestEventQueueReleasesOnlyTheDuePrefix: delivery is metered by due time
// and never reorders — an event that has arrived waits behind one still in
// flight (head-of-line), and what a partial release leaves stays in order.
func TestEventQueueReleasesOnlyTheDuePrefix(t *testing.T) {
	var b eventQueue
	if got := seqs(&b, time.Hour); got != nil {
		t.Fatalf("an empty queue released %v", got)
	}
	b.push(8, partition.Event{Seq: 1}, 0)
	b.push(8, partition.Event{Seq: 2}, 100) // remote: in flight until 100
	b.push(8, partition.Event{Seq: 3}, 0)   // local, queued behind it
	if got := seqs(&b, 0); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("at 0 released %v, want only the head", got)
	}
	if got := seqs(&b, 99); got != nil {
		t.Fatalf("at 99 released %v past an event still in flight", got)
	}
	if got := seqs(&b, 100); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("at 100 released %v, want 2 then 3", got)
	}
}

// TestEventQueueDropsOldest: overflow evicts the head, keeps push order, and
// counts every loss; each survivor keeps its own due time.
func TestEventQueueDropsOldest(t *testing.T) {
	var b eventQueue
	for i := 1; i <= 10; i++ {
		b.push(4, partition.Event{Seq: uint64(i)}, time.Duration(i))
	}
	if b.dropped != 6 {
		t.Fatalf("dropped %d, want 6", b.dropped)
	}
	if got := seqs(&b, 8); !reflect.DeepEqual(got, []uint64{7, 8}) {
		t.Fatalf("at 8 released %v, want the survivors due by then (7, 8)", got)
	}
	if got := seqs(&b, 10); !reflect.DeepEqual(got, []uint64{9, 10}) {
		t.Fatalf("at 10 released %v, want 9, 10 (newest survive)", got)
	}
}

// TestEventQueueKeepsOrderAcrossRefills: a queue drained and refilled past
// its bound many times over still delivers FIFO and still holds the bound.
func TestEventQueueKeepsOrderAcrossRefills(t *testing.T) {
	var b eventQueue
	next := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			b.push(4, partition.Event{Seq: next}, 0)
			next++
		}
		if got := seqs(&b, 0); !reflect.DeepEqual(got, []uint64{next - 3, next - 2, next - 1}) {
			t.Fatalf("round %d released %v", round, got)
		}
	}
	for i := 0; i < 6; i++ {
		b.push(4, partition.Event{Seq: next}, 0)
		next++
	}
	if got := seqs(&b, 0); !reflect.DeepEqual(got, []uint64{next - 4, next - 3, next - 2, next - 1}) || b.dropped != 2 {
		t.Fatalf("after the refills released %v with %d dropped, want the last four and 2", got, b.dropped)
	}
}
