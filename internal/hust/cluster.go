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
// partitioned across servers by a deterministic hash; a lone MDS is a
// cluster of one. In the baseline configuration every server runs its own
// cache, store and predictor over the request sub-stream it actually
// observes — which is exactly the visibility a partitioned deployment has,
// and is why per-partition mining still works (a file and its correlated
// successors usually live on the same directory sub-tree and can be
// co-partitioned; the hash here is uniform, the pessimistic case). A
// Topology with a Global miner (global.go) removes the pessimism: a
// cluster-level partition.Dispatcher routes edge events across server
// boundaries so the ensemble mines the global correlation model.

// ReplayConfig drives a trace replay against a cluster.
type ReplayConfig struct {
	// MDS parameterises every server a Topology's Global miner builds; a
	// Factory is handed it by its caller.
	MDS MDSConfig
	// ArrivalGap spaces demand arrivals evenly; 1ms when not positive.
	ArrivalGap time.Duration
	// NetworkRTT is added to every client-observed response time.
	NetworkRTT time.Duration
	// MaxRecords caps how many records of the trace are replayed, so a
	// short prefix run shares one generated trace with full-length runs;
	// 0 replays the whole trace.
	MaxRecords int
}

// DefaultReplayConfig spaces arrivals at 1ms, which loads the default
// 4-worker / 2ms-miss MDS to a stable utilisation.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{
		MDS:        DefaultMDSConfig(),
		ArrivalGap: time.Millisecond,
		NetworkRTT: 200 * time.Microsecond,
	}
}

// Partitioner maps a file to a metadata server index — the deployment-level
// alias of partition.Partitioner.
type Partitioner = partition.Partitioner

// HashPartitioner spreads files uniformly (Fibonacci hashing).
func HashPartitioner(f trace.FileID, servers int) int { return partition.Hash(f, servers) }

// GroupPartitioner co-locates runs of adjacent file ids (the generators
// allocate a correlation group's files contiguously, so this approximates
// correlation-aware placement via the §4.2 grouping).
func GroupPartitioner(f trace.FileID, servers int) int { return partition.Group(f, servers) }

// Topology describes the cluster a trace is replayed through.
type Topology struct {
	// Servers is the number of metadata servers; 1 is the paper's lone MDS.
	Servers int
	// Partition routes a file's requests (and, under Global, its mined
	// state) to a server; nil = HashPartitioner.
	Partition Partitioner
	// Factory builds each server with the predictor it mines its own
	// sub-stream with. Unused under Global, whose servers predict from
	// their partition of the collective model.
	Factory func(*sim.Engine) (*MDS, error)
	// Global, when set, mines one model across the cluster.
	Global *GlobalConfig
}

// Cluster is a set of metadata servers sharing one virtual-time engine.
type Cluster struct {
	eng       *sim.Engine
	servers   []*MDS
	partition Partitioner
	resp      metrics.LatencyHist
	global    *globalMiner // nil: every server mines its own sub-stream
}

// newCluster assembles top's servers on eng.
func newCluster(eng *sim.Engine, mdsCfg MDSConfig, top Topology) (*Cluster, error) {
	if top.Servers <= 0 {
		return nil, fmt.Errorf("hust: cluster size %d", top.Servers)
	}
	c := &Cluster{eng: eng, partition: top.Partition}
	if c.partition == nil {
		c.partition = HashPartitioner
	}
	if top.Global != nil {
		if err := top.Global.Miner.Validate(); err != nil {
			return nil, err
		}
		c.global = newGlobalMiner(*top.Global, top.Servers, c.partition)
		// Global mining is asynchronous by construction.
		mdsCfg.AsyncPrefetch = true
		mdsCfg.ExternalMiner = true
		if mdsCfg.MinerWorkers == 0 {
			mdsCfg.MinerWorkers = mdsCfg.Workers
		}
	}
	for i := 0; i < top.Servers; i++ {
		var m *MDS
		var err error
		if c.global != nil {
			m, err = NewMDS(eng, mdsCfg, nil, globalPredictor{m: c.global.ens.Shard(i)})
		} else {
			m, err = top.Factory(eng)
		}
		if err != nil {
			return nil, fmt.Errorf("hust: building server %d: %w", i, err)
		}
		c.servers = append(c.servers, m)
	}
	return c, nil
}

// Server exposes one MDS.
func (c *Cluster) Server(i int) *MDS { return c.servers[i] }

// demand routes a request to the owning server. With a global miner
// attached, the record is additionally sequenced through the cluster
// dispatcher, which fans its mining events out across server boundaries.
func (c *Cluster) demand(r *trace.Record) {
	idx := c.partition(r.File, len(c.servers))
	c.servers[idx].Demand(r, c.resp.Observe)
	if c.global != nil {
		c.mineGlobal(idx, r)
	}
}

// ClusterStats aggregates a replay.
type ClusterStats struct {
	PerServer   []Stats
	AvgResponse time.Duration
	P95Response time.Duration
	// ClientAvg is the mean client-observed latency: AvgResponse plus the
	// replay's NetworkRTT.
	ClientAvg time.Duration
	Demand    uint64
	// AvgDemandWait is the demand-weighted mean queueing delay across the
	// servers' demand classes — the cluster-level demand-path health number.
	AvgDemandWait time.Duration
	// Imbalance is max per-server demand / mean per-server demand (1.0 =
	// perfectly balanced).
	Imbalance float64
	// HitRatio is the demand-weighted aggregate cache hit ratio.
	HitRatio float64
	// Global carries the global-mining layer's accounting; nil when every
	// server mined its own sub-stream.
	Global *GlobalMiningStats
}

// finish collects aggregate and per-server statistics.
func (c *Cluster) finish(rtt time.Duration) ClusterStats {
	cs := ClusterStats{
		AvgResponse: c.resp.Mean(),
		P95Response: c.resp.Quantile(0.95),
		ClientAvg:   c.resp.Mean() + rtt,
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

// Replay drives the trace through the cluster top describes, on a fresh
// engine, with evenly spaced arrivals. The returned cluster carries the
// servers — and under Global the mined ensemble (GlobalMiner) — for
// fingerprinting or merged persistence after the run.
func Replay(t *trace.Trace, cfg ReplayConfig, top Topology) (ClusterStats, *Cluster, error) {
	eng := sim.New()
	c, err := newCluster(eng, cfg.MDS, top)
	if err != nil {
		return ClusterStats{}, nil, err
	}
	for _, s := range c.servers {
		if err := s.PopulateStore(t); err != nil {
			return ClusterStats{}, nil, err
		}
	}
	n := len(t.Records)
	if cfg.MaxRecords > 0 && cfg.MaxRecords < n {
		n = cfg.MaxRecords
	}
	if n == 0 {
		return ClusterStats{}, nil, fmt.Errorf("hust: empty trace %q", t.Name)
	}
	gap := cfg.ArrivalGap
	if gap <= 0 {
		gap = time.Millisecond
	}
	for i := 0; i < n; i++ {
		r := &t.Records[i]
		eng.At(time.Duration(i)*gap, func() { c.demand(r) })
	}
	eng.Run()
	return c.finish(cfg.NetworkRTT), c, nil
}
