// Multi-MDS cluster experiment: global vs per-partition (local) mining (not
// a paper artifact — the paper's prototype runs one MDS; this quantifies
// what the partition layer's cross-MDS event routing buys a partitioned
// deployment, and what it costs in inter-server traffic).
package exp

import (
	"time"

	"farmer/internal/hust"
	"farmer/internal/replay"
)

// ClusterRow is one (trace, partitioner, mining mode) outcome of the
// cluster sweep.
type ClusterRow struct {
	Trace         string
	Partition     string // "hash", "group"
	Mining        string // "local" (per-partition miners), "global"
	Servers       int
	HitRatio      float64
	AvgResponse   time.Duration
	AvgDemandWait time.Duration
	Imbalance     float64
	// CrossRatio is the fraction of mining events shipped across MDS
	// boundaries (global rows; 0 for local).
	CrossRatio     float64
	MailboxDropped uint64
	// FingerprintOK reports that the global rows' merged mined state is
	// bit-identical to the sequential single-miner reference (always false
	// for local rows, whose per-server models are disjoint by design).
	FingerprintOK bool
}

// ClusterGlobalVsLocal replays every paper trace through an n-server
// cluster twice per partitioner — per-partition miners (each server mines
// only its sub-stream, on the demand path) versus the global miner (the
// cluster dispatcher fans events across servers, off the demand path) —
// under the mining-heavy calibration, and cross-checks each global run's
// merged state against the sequential reference.
func ClusterGlobalVsLocal(opt Options) []ClusterRow {
	opt = opt.withDefaults()
	if opt.MineTime == 0 {
		opt.MineTime = time.Millisecond
	}
	parts := []struct {
		name string
		fn   hust.Partitioner
	}{{"hash", hust.HashPartitioner}, {"group", hust.GroupPartitioner}}

	traces := genTraces(opt.Records)
	out := make([][]ClusterRow, len(traces))
	jobs := make([]func(), len(traces))
	for i, tr := range traces {
		i, tr := i, tr
		jobs[i] = func() {
			mc := farmerConfig(tr, 0.7, 0.4)
			ref := replay.MineSequential(tr, mc)
			for _, p := range parts {
				local, err := replay.LocalCluster(tr, opt.replayConfig(), opt.ClusterServers, p.fn, mc)
				if err != nil {
					panic(err)
				}
				global, err := replay.GlobalCluster(tr, opt.replayConfig(), opt.ClusterServers, p.fn, mc, hust.DefaultGlobalConfig())
				if err != nil {
					panic(err)
				}
				row := func(mode string, o replay.Outcome) ClusterRow {
					r := ClusterRow{
						Trace:         tr.Name,
						Partition:     p.name,
						Mining:        mode,
						Servers:       opt.ClusterServers,
						HitRatio:      o.Stats.HitRatio,
						AvgResponse:   o.Stats.AvgResponse,
						AvgDemandWait: o.Stats.AvgDemandWait,
						Imbalance:     o.Stats.Imbalance,
					}
					if g := o.Stats.Global; g != nil {
						r.CrossRatio = g.CrossRatio
						r.MailboxDropped = g.MailboxDropped
						r.FingerprintOK = o.Fingerprint == ref
					}
					return r
				}
				out[i] = append(out[i], row("local", local), row("global", global))
			}
		}
	}
	parallel(opt.Parallelism, jobs)
	var rows []ClusterRow
	for _, r := range out {
		rows = append(rows, r...)
	}
	return rows
}

// ClusterTable renders the cluster sweep.
func ClusterTable(rows []ClusterRow) *Table {
	tab := newTable("Trace", "Partition", "Mining", "HitRatio", "AvgResp", "DemandWait", "Cross%", "BoxDrop", "GlobalFP")
	for _, r := range rows {
		fp := "-"
		if r.Mining == "global" {
			fp = "DIVERGED"
			if r.FingerprintOK {
				fp = "exact"
			}
		}
		tab.addRow(r.Trace, r.Partition, r.Mining, r.HitRatio, r.AvgResponse, r.AvgDemandWait,
			100*r.CrossRatio, r.MailboxDropped, fp)
	}
	return tab
}
