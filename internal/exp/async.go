// Sync-vs-async demand-latency experiment: the measurement behind the async
// prefetch pipeline (not a paper artifact — the paper's prototype mines on
// the demand path; this quantifies what moving it off costs and buys).
package exp

import (
	"time"

	"farmer/internal/metrics"
	"farmer/internal/replay"
)

// AsyncRow is one (trace, pipeline) outcome of the sync-vs-async sweep.
type AsyncRow struct {
	Trace         string
	Pipeline      string // "baseline" (no prefetch), "sync", "async"
	HitRatio      float64
	AvgResponse   time.Duration
	AvgDemandWait time.Duration
	MineAvgWait   time.Duration
	PrefetchDrop  uint64
	Fingerprint   uint64 // 0 for the baseline (nothing mined)
}

// SyncVsAsync replays every paper trace through the no-prefetch baseline,
// the synchronous FARMER pipeline and the asynchronous one, under a
// mining-heavy calibration (Options.MineTime, default 1ms when unset), and
// verifies in passing that sync and async mine bit-identical state.
func SyncVsAsync(opt Options) []AsyncRow {
	opt = opt.withDefaults()
	if opt.Replay.MDS.MineTime == 0 {
		opt.Replay.MDS.MineTime = time.Millisecond
	}
	traces := genTraces(opt.Records)
	out := make([][]AsyncRow, len(traces))
	jobs := make([]func(), len(traces))
	for i, tr := range traces {
		i, tr := i, tr
		jobs[i] = func() {
			mc := farmerConfig(tr, 0.7, 0.4)
			mc.Shards = opt.Shards
			cmp, err := replay.Compare(tr, opt.Replay, mc)
			if err != nil {
				panic(err)
			}
			if cmp.Sync.Fingerprint != cmp.Async.Fingerprint {
				panic("exp: sync and async pipelines mined different state on " + tr.Name)
			}
			row := func(name string, o replay.Outcome) AsyncRow {
				return AsyncRow{
					Trace:         tr.Name,
					Pipeline:      name,
					HitRatio:      o.Stats.HitRatio,
					AvgResponse:   o.Stats.AvgResponse,
					AvgDemandWait: o.Stats.AvgDemandWait,
					MineAvgWait:   o.Stats.PerServer[0].MineAvgWait,
					PrefetchDrop:  o.Stats.PerServer[0].PrefetchDropped,
					Fingerprint:   o.Fingerprint,
				}
			}
			out[i] = []AsyncRow{
				{
					Trace:         tr.Name,
					Pipeline:      "baseline",
					HitRatio:      cmp.Baseline.HitRatio,
					AvgResponse:   cmp.Baseline.AvgResponse,
					AvgDemandWait: cmp.Baseline.AvgDemandWait,
				},
				row("sync", cmp.Sync),
				row("async", cmp.Async),
			}
		}
	}
	parallel(opt.Parallelism, jobs)
	var rows []AsyncRow
	for _, r := range out {
		rows = append(rows, r...)
	}
	return rows
}

// AsyncLatency renders the sync-vs-async sweep as a table.
func AsyncLatency(rows []AsyncRow) *metrics.Table {
	tab := metrics.NewTable("Trace", "Pipeline", "HitRatio", "AvgResp", "DemandWait", "MineWait", "PfDropped")
	for _, r := range rows {
		tab.AddRow(r.Trace, r.Pipeline, r.HitRatio, r.AvgResponse, r.AvgDemandWait, r.MineAvgWait, r.PrefetchDrop)
	}
	return tab
}
