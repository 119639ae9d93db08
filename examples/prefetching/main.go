// Prefetching: run the FARMER-enabled prefetching algorithm (FPA) against
// Nexus and plain LRU on the simulated HUSt metadata server — the paper's
// §5 case study in one program.
package main

import (
	"fmt"
	"log"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func main() {
	workload := tracegen.HP(40000).MustGenerate()
	cfg := hust.DefaultReplayConfig()
	mc := core.DefaultConfig()
	mc.Mask = vsm.DefaultMask(workload.HasPaths)

	fmt.Printf("%-8s %10s %10s %14s %12s\n", "policy", "hit ratio", "accuracy", "avg response", "p95")
	var lruResp, farmerResp float64
	for _, policy := range []string{"FARMER", "Nexus", "LRU"} {
		res, _, err := hust.Replay(workload, cfg, hust.Topology{Servers: 1, Policy: policy, Miner: mc})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10.4f %10.4f %14v %12v\n",
			policy,
			res.HitRatio,
			res.PerServer[0].Cache.PrefetchAccuracy(),
			res.AvgResponse,
			res.P95Response)
		switch policy {
		case "FARMER":
			farmerResp = float64(res.AvgResponse)
		case "LRU":
			lruResp = float64(res.AvgResponse)
		}
	}
	if lruResp > 0 {
		fmt.Printf("\nFARMER reduces average MDS response time by %.1f%% vs LRU\n",
			100*(1-farmerResp/lruResp))
	}
}
