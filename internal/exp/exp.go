// Package exp contains one driver per figure and table of the paper's
// evaluation (§2.2, §5.2, §5.3, §5.4). Each driver generates the synthetic
// workloads, runs the storage simulation or the miner, and renders the same
// rows/series the paper reports, so `farmerctl figN` (or the benchmarks in
// the repository root) regenerate every artifact. EXPERIMENTS.md records
// paper-vs-measured values. Simulated response times come from hust's
// obs.Histogram, the repository's one histogram; Table renders the rows.
package exp

import (
	"runtime"
	"sync"
	"time"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// Options tunes experiment scale. Zero values select defaults sized to run
// all experiments in a couple of minutes on a laptop.
type Options struct {
	// Records per generated trace.
	Records int
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
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.ClusterServers <= 0 {
		o.ClusterServers = 4
	}
	return o
}

// replayConfig is the hust replay every driver runs: the defaults with the
// async pipeline knobs on top.
func (o Options) replayConfig() hust.ReplayConfig {
	cfg := hust.DefaultReplayConfig()
	cfg.MDS.AsyncPrefetch = o.AsyncPrefetch
	cfg.MDS.MineTime = o.MineTime
	return cfg
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

// replayLone replays tr through a lone MDS prefetching with policy, its
// FARMER miner mc striped per Shards. A replay fails only on a
// configuration the drivers themselves built, so it panics.
func (o Options) replayLone(tr *trace.Trace, policy string, mc core.Config) hust.ClusterStats {
	mc.Shards = o.Shards
	cs, _, err := hust.Replay(tr, o.replayConfig(), hust.Topology{Servers: 1, Policy: policy, Miner: mc})
	if err != nil {
		panic(err)
	}
	return cs
}

// farmerConfig returns the paper-default FARMER configuration adapted to the
// trace's attribute schema.
func farmerConfig(t *trace.Trace, weight, maxStrength float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Weight = weight
	cfg.MaxStrength = maxStrength
	cfg.Mask = vsm.DefaultMask(t.HasPaths)
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
