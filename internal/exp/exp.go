// Package exp contains one driver per figure and table of the paper's
// evaluation (§2.2, §5.2, §5.3, §5.4). Each driver generates the synthetic
// workloads, runs the storage simulation or the miner, and renders the same
// rows/series the paper reports, so `farmerctl figN` (or the benchmarks in
// the repository root) regenerate every artifact. EXPERIMENTS.md records
// paper-vs-measured values.
package exp

import (
	"runtime"
	"sync"
	"time"

	"farmer/internal/core"
	"farmer/internal/graph"
	"farmer/internal/hust"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// Options tunes experiment scale. Zero values select defaults sized to run
// all experiments in a couple of minutes on a laptop.
type Options struct {
	// Records per generated trace.
	Records int
	// Replay configuration; zero value takes hust defaults.
	Replay hust.ReplayConfig
	// Parallelism bounds concurrent simulations; 0 = GOMAXPROCS.
	Parallelism int
	// Shards stripes the FARMER miner inside each simulated MDS: 0 matches
	// the MDS worker count, 1 mines on one shard. Every count produces
	// identical results (see core.ShardedModel); the knob exists to exercise
	// and measure them.
	Shards int
	// AsyncPrefetch moves mining and prediction off every simulated MDS
	// demand path onto the shard-worker station (hust.MDSConfig), so the
	// paper experiments can be regenerated under the async pipeline.
	AsyncPrefetch bool
	// MineTime models the per-record mining CPU cost inside each MDS
	// (0 keeps the legacy free-mining calibration). Sync runs pay it on
	// the demand path; async runs on the mining station.
	MineTime time.Duration
	// ClusterServers sizes the multi-MDS cluster experiments (default 4).
	ClusterServers int
}

func (o Options) withDefaults() Options {
	if o.Records <= 0 {
		o.Records = 30000
	}
	if o.Replay.MDS.CacheCapacity == 0 {
		// A partially built Replay is replaced wholesale, but the async
		// pipeline knobs ride through so the layering promise below holds.
		mds := o.Replay.MDS
		o.Replay = hust.DefaultReplayConfig()
		o.Replay.MDS.MineTime = mds.MineTime
		o.Replay.MDS.AsyncPrefetch = mds.AsyncPrefetch
		o.Replay.MDS.PrefetchQueue = mds.PrefetchQueue
		o.Replay.MDS.MinerWorkers = mds.MinerWorkers
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.ClusterServers <= 0 {
		o.ClusterServers = 4
	}
	// Both knobs only layer on top of an explicitly configured Replay: a
	// caller-supplied Replay.MDS.AsyncPrefetch/MineTime must survive zero
	// Options values.
	if o.AsyncPrefetch {
		o.Replay.MDS.AsyncPrefetch = true
	}
	if o.MineTime > 0 {
		o.Replay.MDS.MineTime = o.MineTime
	}
	return o
}

// parallel runs jobs with bounded concurrency and waits for all.
func parallel(limit int, jobs []func()) {
	if limit <= 0 {
		limit = 1
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(fn func()) {
			defer wg.Done()
			defer func() { <-sem }()
			fn()
		}(job)
	}
	wg.Wait()
}

// replayLone replays tr through a lone MDS built by factory. A replay fails
// only on a configuration the drivers themselves built, so it panics.
func replayLone(tr *trace.Trace, cfg hust.ReplayConfig, factory func(*sim.Engine) (*hust.MDS, error)) hust.ClusterStats {
	cs, _, err := hust.Replay(tr, cfg, hust.Topology{Servers: 1, Factory: factory})
	if err != nil {
		panic(err)
	}
	return cs
}

// farmerFactory builds an FPA-driven MDS for a trace; shards follows
// Options.Shards semantics.
func farmerFactory(cfg hust.MDSConfig, mc core.Config, shards int) func(*sim.Engine) (*hust.MDS, error) {
	mc.Shards = shards
	return func(e *sim.Engine) (*hust.MDS, error) {
		return hust.NewFARMERMDS(e, cfg, nil, mc)
	}
}

func nexusFactory(cfg hust.MDSConfig) func(*sim.Engine) (*hust.MDS, error) {
	return func(e *sim.Engine) (*hust.MDS, error) {
		return hust.NewMDS(e, cfg, nil, predictors.NewNexus(predictors.DefaultNexusConfig()))
	}
}

func lruFactory(cfg hust.MDSConfig) func(*sim.Engine) (*hust.MDS, error) {
	return func(e *sim.Engine) (*hust.MDS, error) {
		return hust.NewMDS(e, cfg, nil, predictors.NewNone())
	}
}

// farmerConfig returns the paper-default FARMER configuration adapted to the
// trace's attribute schema.
func farmerConfig(t *trace.Trace, weight, maxStrength float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Weight = weight
	cfg.MaxStrength = maxStrength
	cfg.Mask = vsm.DefaultMask(t.HasPaths)
	cfg.Graph = graph.DefaultConfig()
	return cfg
}

// genTraces generates the four paper workloads at the configured size, in
// the paper's order (LLNL, INS, RES, HP).
func genTraces(records int) []*trace.Trace {
	profiles := tracegen.Profiles(records)
	out := make([]*trace.Trace, len(profiles))
	jobs := make([]func(), len(profiles))
	for i, p := range profiles {
		i, p := i, p
		jobs[i] = func() { out[i] = p.MustGenerate() }
	}
	parallel(len(jobs), jobs)
	return out
}
