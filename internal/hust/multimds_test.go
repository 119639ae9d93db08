package hust

import (
	"testing"
	"time"

	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

func TestClusterValidation(t *testing.T) {
	if _, err := newCluster(sim.New(), DefaultMDSConfig(), Topology{}); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestClusterBalancesLoad(t *testing.T) {
	tr := tracegen.HP(12000).MustGenerate()
	cfg := DefaultReplayConfig()
	cs, _, err := Replay(tr, cfg, Topology{Servers: 4, Partition: HashPartitioner, Policy: "farmer", Miner: miner(true)})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Demand != 12000 {
		t.Fatalf("demand = %d", cs.Demand)
	}
	if len(cs.PerServer) != 4 {
		t.Fatalf("servers = %d", len(cs.PerServer))
	}
	if cs.Imbalance > 1.25 {
		t.Fatalf("hash partition imbalance %.3f too high", cs.Imbalance)
	}
}

// TestClusterScalesThroughput: under a tight arrival gap that saturates a
// single MDS, 4 servers must deliver much lower latency.
func TestClusterScalesThroughput(t *testing.T) {
	tr := tracegen.HP(10000).MustGenerate()
	cfg := DefaultReplayConfig()
	cfg.ArrivalGap = 300 * time.Microsecond // saturates one 4-worker MDS

	single, _, err := Replay(tr, cfg, Topology{Servers: 1, Partition: HashPartitioner, Policy: "farmer", Miner: miner(true)})
	if err != nil {
		t.Fatal(err)
	}
	quad, _, err := Replay(tr, cfg, Topology{Servers: 4, Partition: HashPartitioner, Policy: "farmer", Miner: miner(true)})
	if err != nil {
		t.Fatal(err)
	}
	if quad.AvgResponse >= single.AvgResponse {
		t.Fatalf("4-server latency %v >= 1-server %v", quad.AvgResponse, single.AvgResponse)
	}
	if quad.AvgResponse > single.AvgResponse/2 {
		t.Logf("note: scaling modest: %v vs %v", quad.AvgResponse, single.AvgResponse)
	}
}

// TestGroupPartitionerPreservesPrefetching: correlation-aware placement
// keeps group members on one server, so per-server mining sees whole
// sessions and the aggregate hit ratio beats uniform hashing.
func TestGroupPartitionerPreservesPrefetching(t *testing.T) {
	tr := tracegen.HP(12000).MustGenerate()
	cfg := DefaultReplayConfig()
	hash, _, err := Replay(tr, cfg, Topology{Servers: 4, Partition: HashPartitioner, Policy: "farmer", Miner: miner(true)})
	if err != nil {
		t.Fatal(err)
	}
	grouped, _, err := Replay(tr, cfg, Topology{Servers: 4, Partition: GroupPartitioner, Policy: "farmer", Miner: miner(true)})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.HitRatio <= hash.HitRatio {
		t.Fatalf("group partition hit %.4f <= hash partition %.4f", grouped.HitRatio, hash.HitRatio)
	}
}

func TestPartitionersDeterministicAndInRange(t *testing.T) {
	for f := 0; f < 10000; f++ {
		for _, n := range []int{1, 3, 4, 7} {
			a := HashPartitioner(trace.FileID(f), n)
			b := HashPartitioner(trace.FileID(f), n)
			if a != b || a < 0 || a >= n {
				t.Fatalf("hash partitioner broken: f=%d n=%d -> %d,%d", f, n, a, b)
			}
			g := GroupPartitioner(trace.FileID(f), n)
			if g < 0 || g >= n {
				t.Fatalf("group partitioner out of range: %d", g)
			}
		}
	}
}
