package hust

import (
	"fmt"
	"time"

	"farmer/internal/metrics"
	"farmer/internal/partition"
	"farmer/internal/sim"
	"farmer/internal/trace"
)

// Multi-MDS clustering (paper §4.1): "use multiple metadata servers to
// coordinate the metadata requests ... for load balancing". Files are
// partitioned across servers by a deterministic hash; by default every
// server runs its own cache, store and predictor over the request
// sub-stream it actually observes — which is exactly the visibility a
// partitioned deployment has, and is why per-partition mining still works
// (a file and its correlated successors usually live on the same directory
// sub-tree and can be co-partitioned; the hash here is uniform, the
// pessimistic case). NewGlobalCluster (global.go) removes the pessimism:
// a cluster-level partition.Dispatcher routes edge events across server
// boundaries so the ensemble mines the global correlation model.

// Partitioner maps a file to a metadata server index — the deployment-level
// alias of partition.Partitioner.
type Partitioner = partition.Partitioner

// HashPartitioner spreads files uniformly (Fibonacci hashing).
func HashPartitioner(f trace.FileID, servers int) int { return partition.Hash(f, servers) }

// GroupPartitioner co-locates runs of adjacent file ids (the generators
// allocate a correlation group's files contiguously, so this approximates
// correlation-aware placement via the §4.2 grouping).
func GroupPartitioner(f trace.FileID, servers int) int { return partition.Group(f, servers) }

// Cluster is a set of metadata servers sharing one virtual-time engine.
// With a global miner attached (NewGlobalCluster) the servers collectively
// mine one model; otherwise each server's predictor sees only its own
// sub-stream.
type Cluster struct {
	eng       *sim.Engine
	servers   []*MDS
	partition Partitioner
	resp      metrics.LatencyHist
	global    *globalMiner
}

// NewCluster builds n servers with the given per-server factory.
func NewCluster(eng *sim.Engine, n int, partition Partitioner, factory func(i int, e *sim.Engine) (*MDS, error)) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hust: cluster size %d", n)
	}
	if partition == nil {
		partition = HashPartitioner
	}
	c := &Cluster{eng: eng, partition: partition}
	for i := 0; i < n; i++ {
		m, err := factory(i, eng)
		if err != nil {
			return nil, fmt.Errorf("hust: building server %d: %w", i, err)
		}
		c.servers = append(c.servers, m)
	}
	return c, nil
}

// Server exposes one MDS (tests).
func (c *Cluster) Server(i int) *MDS { return c.servers[i] }

// Demand routes a request to the owning server. With a global miner
// attached, the record is additionally sequenced through the cluster
// dispatcher, which fans its mining events out across server boundaries.
func (c *Cluster) Demand(r *trace.Record, done func(resp time.Duration)) {
	idx := c.partition(r.File, len(c.servers))
	c.servers[idx].Demand(r, func(resp time.Duration) {
		c.resp.Observe(resp)
		if done != nil {
			done(resp)
		}
	})
	if c.global != nil {
		c.mineGlobal(idx, r)
	}
}

// ClusterStats aggregates a cluster run.
type ClusterStats struct {
	PerServer   []Stats
	AvgResponse time.Duration
	P95Response time.Duration
	Demand      uint64
	// AvgDemandWait is the demand-weighted mean queueing delay across the
	// servers' demand classes — the cluster-level demand-path health number.
	AvgDemandWait time.Duration
	// Imbalance is max per-server demand / mean per-server demand (1.0 =
	// perfectly balanced).
	Imbalance float64
	// HitRatio is the demand-weighted aggregate cache hit ratio.
	HitRatio float64
	// Global carries the global-mining layer's accounting; nil for
	// per-partition-miner clusters.
	Global *GlobalMiningStats
}

// Finish collects aggregate and per-server statistics.
func (c *Cluster) Finish() ClusterStats {
	cs := ClusterStats{
		AvgResponse: c.resp.Mean(),
		P95Response: c.resp.Quantile(0.95),
		Demand:      c.resp.Count(),
	}
	var maxDemand, sumDemand uint64
	var hits, lookups uint64
	var waitSum time.Duration
	for _, s := range c.servers {
		st := s.Finish()
		cs.PerServer = append(cs.PerServer, st)
		if st.Demand > maxDemand {
			maxDemand = st.Demand
		}
		sumDemand += st.Demand
		waitSum += st.AvgDemandWait * time.Duration(st.Demand)
		hits += st.Cache.Hits
		lookups += st.Cache.Lookups
	}
	if sumDemand > 0 {
		mean := float64(sumDemand) / float64(len(c.servers))
		cs.Imbalance = float64(maxDemand) / mean
		cs.AvgDemandWait = waitSum / time.Duration(sumDemand)
	}
	if lookups > 0 {
		cs.HitRatio = float64(hits) / float64(lookups)
	}
	if c.global != nil {
		cs.Global = c.global.stats()
	}
	return cs
}

// replay drives a whole trace through a built cluster with evenly spaced
// arrivals — shared by the per-partition and global replay entry points.
func (c *Cluster) replay(t *trace.Trace, cfg ReplayConfig) (ClusterStats, error) {
	for _, s := range c.servers {
		if err := s.PopulateStore(t); err != nil {
			return ClusterStats{}, err
		}
	}
	n := len(t.Records)
	if cfg.MaxRecords > 0 && cfg.MaxRecords < n {
		n = cfg.MaxRecords
	}
	if n == 0 {
		return ClusterStats{}, fmt.Errorf("hust: empty trace %q", t.Name)
	}
	gap := cfg.ArrivalGap
	if gap <= 0 {
		gap = time.Millisecond
	}
	for i := 0; i < n; i++ {
		r := &t.Records[i]
		c.eng.At(time.Duration(i)*gap, func() { c.Demand(r, nil) })
	}
	c.eng.Run()
	return c.Finish(), nil
}

// ReplayCluster drives a whole trace through an n-server cluster with
// evenly spaced arrivals and returns the aggregate stats.
func ReplayCluster(t *trace.Trace, cfg ReplayConfig, n int, partition Partitioner,
	factory func(i int, e *sim.Engine) (*MDS, error)) (ClusterStats, error) {
	eng := sim.New()
	c, err := NewCluster(eng, n, partition, factory)
	if err != nil {
		return ClusterStats{}, err
	}
	return c.replay(t, cfg)
}
