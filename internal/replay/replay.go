// Package replay is the deterministic trace-replay harness behind the async
// prefetch pipeline's correctness claims. It runs the same trace through the
// synchronous and asynchronous pipelines under the virtual-time engine and
// exposes what the tests assert:
//
//   - a Fingerprint of the complete mined state (every Correlator List,
//     degrees compared at full float64 precision), so "bit-identical mined
//     state" is one uint64 comparison;
//   - a Comparison bundling the no-prefetch baseline with the sync and
//     async FARMER replays of one trace, so demand-latency regressions are
//     directly visible;
//   - RunPipeline, which drives the real goroutine-based prefetch.Pipeline
//     (tap consumers, bounded queue, submit loop) over the same trace so
//     the concurrent path is exercised under -race and cross-checked
//     against the sequential mine.
//
// Everything here is virtual-time or barrier-synchronized, so results are
// reproducible run-to-run.
package replay

import (
	"fmt"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
)

// lister is the read surface a fingerprint needs; core.Model and
// core.ShardedModel both satisfy it.
type lister interface {
	CorrelatorList(f trace.FileID) []core.Correlator
}

// Fingerprint hashes the complete mined correlation state over the dense
// FileID space [0, fileCount): list lengths, successor ids and the exact
// float64 bits of every degree component. Two miners agree on the
// fingerprint iff their mined state is bit-identical. It delegates to
// core.StateFingerprint, the same hash the replication layer verifies
// catch-up transfers with, so the harness and the wire agree by
// construction.
func Fingerprint(m lister, fileCount int) uint64 {
	return core.StateFingerprint(m, fileCount)
}

// MineSequential feeds the trace through the paper-exact single-lock Model
// and fingerprints the result — the reference every other path must match.
func MineSequential(tr *trace.Trace, mc core.Config) uint64 {
	mc.Shards = 0
	m := core.New(mc)
	m.FeedTrace(tr)
	return Fingerprint(m, tr.FileCount)
}

// Outcome is one replay: the simulation's aggregate stats, the mined-state
// fingerprint (0 for a per-partition cluster, whose servers mine disjoint
// local models), and the cluster itself for follow-on persistence or
// prediction checks.
type Outcome struct {
	Stats       hust.ClusterStats
	Fingerprint uint64
	Cluster     *hust.Cluster
}

// farmerMDS is the Topology factory of servers that each run their own
// FARMER miner.
func farmerMDS(cfg hust.MDSConfig, mc core.Config) func(*sim.Engine) (*hust.MDS, error) {
	return func(e *sim.Engine) (*hust.MDS, error) { return hust.NewFARMERMDS(e, cfg, nil, mc) }
}

// FARMER replays tr through a lone FARMER MDS built from cfg/mc and
// fingerprints the mined state afterwards.
func FARMER(tr *trace.Trace, cfg hust.ReplayConfig, mc core.Config) (Outcome, error) {
	stats, c, err := hust.Replay(tr, cfg, hust.Topology{Servers: 1, Factory: farmerMDS(cfg.MDS, mc)})
	if err != nil {
		return Outcome{}, err
	}
	miner, err := minerOf(c.Server(0))
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Stats: stats, Fingerprint: Fingerprint(miner, tr.FileCount), Cluster: c}, nil
}

func minerOf(m *hust.MDS) (*core.ShardedModel, error) {
	fpa, ok := m.Predictor().(*predictors.FPA)
	if !ok {
		return nil, fmt.Errorf("replay: MDS predictor %q is not a FARMER FPA", m.Predictor().Name())
	}
	sm, ok := fpa.Miner().(*core.ShardedModel)
	if !ok {
		return nil, fmt.Errorf("replay: FPA does not drive a sharded miner")
	}
	return sm, nil
}

// Comparison bundles the three replays of one trace the async-pipeline
// claims rest on: a no-prefetch baseline (no mining cost), the synchronous
// FARMER pipeline (mining on the demand path), and the asynchronous one
// (mining on the shard-worker station).
type Comparison struct {
	Baseline hust.ClusterStats
	Sync     Outcome
	Async    Outcome
}

// Compare replays tr three ways under identical arrival processes. cfg.MDS
// carries the mining-cost (MineTime) and backpressure (PrefetchQueue)
// knobs; AsyncPrefetch is overridden per leg. The baseline leg clears
// MineTime and disables prefetching.
func Compare(tr *trace.Trace, cfg hust.ReplayConfig, mc core.Config) (Comparison, error) {
	var out Comparison

	base := cfg
	base.MDS.MineTime = 0
	base.MDS.AsyncPrefetch = false
	base.MDS.PrefetchK = 0
	res, _, err := hust.Replay(tr, base, hust.Topology{Servers: 1, Factory: func(e *sim.Engine) (*hust.MDS, error) {
		return hust.NewMDS(e, base.MDS, nil, predictors.NewNone())
	}})
	if err != nil {
		return out, err
	}
	out.Baseline = res

	sync := cfg
	sync.MDS.AsyncPrefetch = false
	if out.Sync, err = FARMER(tr, sync, mc); err != nil {
		return out, err
	}

	async := cfg
	async.MDS.AsyncPrefetch = true
	if out.Async, err = FARMER(tr, async, mc); err != nil {
		return out, err
	}
	return out, nil
}

// GlobalCluster replays tr through an n-server global-mining cluster
// (cluster-level dispatcher, bounded inter-MDS event queues) and
// fingerprints the merged model — directly comparable against
// MineSequential, because a drop-free global cluster mines bit-identical
// state.
func GlobalCluster(tr *trace.Trace, cfg hust.ReplayConfig, n int, part hust.Partitioner,
	mc core.Config, gcfg hust.GlobalConfig) (Outcome, error) {
	gcfg.Miner = mc
	stats, c, err := hust.Replay(tr, cfg, hust.Topology{Servers: n, Partition: part, Global: &gcfg})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Stats: stats, Fingerprint: Fingerprint(c.GlobalMiner(), tr.FileCount), Cluster: c}, nil
}

// LocalCluster replays tr through the per-partition baseline: every server
// runs its own FARMER miner over only the sub-stream it observes (mining on
// the demand path, as the paper's prototype does).
func LocalCluster(tr *trace.Trace, cfg hust.ReplayConfig, n int, part hust.Partitioner,
	mc core.Config) (Outcome, error) {
	mc.Shards = 1
	stats, c, err := hust.Replay(tr, cfg, hust.Topology{Servers: n, Partition: part, Factory: farmerMDS(cfg.MDS, mc)})
	return Outcome{Stats: stats, Cluster: c}, err
}
