// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark runs
// the corresponding experiment end to end — workload generation, mining,
// and storage simulation — and reports the headline metric through b.Log
// and custom metrics, so `go test -bench=Fig7 -v` reproduces the artifact.
package farmer_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"farmer"
	"farmer/internal/exp"
)

// benchRecords keeps full-pipeline benchmarks tractable; farmerctl runs the
// larger default scale.
const benchRecords = 15000

func benchOpt() exp.Options { return exp.Options{Records: benchRecords} }

// BenchmarkFig1InterFileAccessProbability regenerates Figure 1.
func BenchmarkFig1InterFileAccessProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Fig1(benchOpt())
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkTable2DPAvsIPA regenerates the Table 2 worked example.
func BenchmarkTable2DPAvsIPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Table2()
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig3WeightSweep regenerates Figure 3 for the HP trace (the other
// traces follow the same driver; see farmerctl fig3).
func BenchmarkFig3WeightSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Fig3(benchOpt(), "HP")
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig5AttributeCombinations regenerates the Figure 5 table (15
// attribute combinations x 3 traces = 45 simulations).
func BenchmarkFig5AttributeCombinations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Fig5(benchOpt())
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig6MaxStrength regenerates Figure 6.
func BenchmarkFig6MaxStrength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Fig6(benchOpt())
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig7HitRatioComparison regenerates Figure 7 and reports the HP
// hit ratios as custom metrics.
func BenchmarkFig7HitRatioComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := exp.ComparePolicies(benchOpt())
		if i == 0 {
			b.Log("\n" + exp.Fig7(runs).String())
			for _, r := range runs {
				if r.Trace == "HP" {
					b.ReportMetric(r.HitRatio, "hit@HP/"+r.Policy)
				}
			}
		}
	}
}

// BenchmarkFig8ResponseTime regenerates Figure 8.
func BenchmarkFig8ResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := exp.ComparePolicies(benchOpt())
		if i == 0 {
			b.Log("\n" + exp.Fig8(runs).String())
		}
	}
}

// BenchmarkTable3PrefetchAccuracy regenerates Table 3.
func BenchmarkTable3PrefetchAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := exp.ComparePolicies(benchOpt())
		if i == 0 {
			b.Log("\n" + exp.Table3(runs).String())
			for _, r := range runs {
				if r.Trace == "HP" && r.Policy != "LRU" {
					b.ReportMetric(r.Accuracy, "accuracy/"+r.Policy)
				}
			}
		}
	}
}

// BenchmarkTable4SpaceOverhead regenerates Table 4.
func BenchmarkTable4SpaceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.Table4(benchOpt())
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkAblationFootprint regenerates the §3.3 filtering-efficiency
// ablation.
func BenchmarkAblationFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.AblationFootprint(benchOpt(), "HP")
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkIngestSingleLock mines a full HP workload through the
// single-lock Model — the baseline for BenchmarkIngestSharded. Compare the
// records/s metrics: on a multi-core machine the sharded batch path should
// scale near-linearly (its serial dispatch fraction is <10% of the
// single-lock mining cost; see EXPERIMENTS.md).
func BenchmarkIngestSingleLock(b *testing.B) {
	tr, err := farmer.Generate(farmer.HP(benchRecords))
	if err != nil {
		b.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := farmer.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sm := m.Sharded()
		for j := range tr.Records {
			sm.Feed(&tr.Records[j])
		}
		m.Close()
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIngestSharded mines the same workload through ShardedModel's
// concurrent batch path at several stripe widths.
func BenchmarkIngestSharded(b *testing.B) {
	tr, err := farmer.Generate(farmer.HP(benchRecords))
	if err != nil {
		b.Fatal(err)
	}
	shardCounts := []int{4}
	if p := runtime.GOMAXPROCS(0); p != 4 {
		shardCounts = append(shardCounts, p)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := farmer.ConfigFor(tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := farmer.Open(cfg, farmer.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				m.Sharded().FeedTraceParallel(tr)
				m.Close()
			}
			b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkIngestShardedObs is BenchmarkIngestSharded with a live metrics
// registry attached and a goroutine scraping it continuously — the proof
// that observability costs nothing on the hot path (CI gates the records/s
// delta against BenchmarkIngestSharded at ≤2%, well inside benchjson's 20%
// regression fence). Every miner series is a scrape-time callback over
// atomics the model already maintains, so the feed loop gains zero
// instructions.
func BenchmarkIngestShardedObs(b *testing.B) {
	tr, err := farmer.Generate(farmer.HP(benchRecords))
	if err != nil {
		b.Fatal(err)
	}
	shardCounts := []int{4}
	if p := runtime.GOMAXPROCS(0); p != 4 {
		shardCounts = append(shardCounts, p)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := farmer.ConfigFor(tr)
			reg := farmer.NewMetricsRegistry()
			stop := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				// A scrape every millisecond is ~10000x a real Prometheus
				// cadence; a spin loop would instead measure a goroutine
				// burning a core, which is not what an endpoint costs.
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						_ = reg.WritePrometheus(io.Discard)
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := farmer.Open(cfg, farmer.WithShards(shards), farmer.WithObs(reg))
				if err != nil {
					b.Fatal(err)
				}
				m.Sharded().FeedTraceParallel(tr)
				m.Close()
			}
			b.StopTimer()
			close(stop)
			<-scraped
			b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkMiningQuality scores every predictor's mined correlations against
// ground truth (the paper's "more accurately" claim).
func BenchmarkMiningQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.MiningQuality(benchOpt())
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkClusterGlobalVsLocal regenerates the multi-MDS cluster
// comparison: per-partition miners vs the cluster-level global miner under
// hash and group placement (`farmerctl cluster` at full scale).
func BenchmarkClusterGlobalVsLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := exp.ClusterTable(exp.ClusterGlobalVsLocal(benchOpt()))
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}
