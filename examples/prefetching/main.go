// Prefetching: run the FARMER-enabled prefetching algorithm (FPA) against
// Nexus and plain LRU on the simulated HUSt metadata server — the paper's
// §5 case study in one program.
package main

import (
	"fmt"
	"log"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func main() {
	workload := tracegen.HP(40000).MustGenerate()
	cfg := hust.DefaultReplayConfig()

	type policy struct {
		name    string
		factory func(*sim.Engine) (*hust.MDS, error)
	}
	policies := []policy{
		{"FARMER", func(e *sim.Engine) (*hust.MDS, error) {
			mc := core.DefaultConfig()
			mc.Mask = vsm.DefaultMask(workload.HasPaths)
			return hust.NewMDS(e, cfg.MDS, nil, predictors.NewFPA(core.New(mc)))
		}},
		{"Nexus", func(e *sim.Engine) (*hust.MDS, error) {
			return hust.NewMDS(e, cfg.MDS, nil, predictors.NewNexus(predictors.DefaultNexusConfig()))
		}},
		{"LRU", func(e *sim.Engine) (*hust.MDS, error) {
			return hust.NewMDS(e, cfg.MDS, nil, predictors.NewNone())
		}},
	}

	fmt.Printf("%-8s %10s %10s %14s %12s\n", "policy", "hit ratio", "accuracy", "avg response", "p95")
	var lruResp, farmerResp float64
	for _, p := range policies {
		res, _, err := hust.Replay(workload, cfg, hust.Topology{Servers: 1, Factory: p.factory})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10.4f %10.4f %14v %12v\n",
			p.name,
			res.HitRatio,
			res.PerServer[0].Cache.PrefetchAccuracy(),
			res.AvgResponse,
			res.P95Response)
		switch p.name {
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
