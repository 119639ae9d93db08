// Attribute study: which semantic attributes (and combinations) contribute
// most to correlation mining? Reproduces the paper's §5.2.2 investigation in
// miniature, printing the hit ratio per attribute combination on an
// HP-style workload.
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
	workload := tracegen.HP(25000).MustGenerate()
	cfg := hust.DefaultReplayConfig()

	attrs := []vsm.Attr{vsm.AttrUser, vsm.AttrProcess, vsm.AttrHost, vsm.AttrPath}
	combos := vsm.Combinations(attrs)

	fmt.Println("hit ratio per attribute combination (HP workload, p=0.7, max_strength=0.4):")
	var bestMask vsm.Mask
	bestHit := -1.0
	for _, mask := range combos {
		mask := mask
		res, _, err := hust.Replay(workload, cfg, hust.Topology{Servers: 1, Factory: func(e *sim.Engine) (*hust.MDS, error) {
			mc := core.DefaultConfig()
			mc.Mask = mask
			return hust.NewMDS(e, cfg.MDS, nil, predictors.NewFPA(core.New(mc)))
		}})
		if err != nil {
			log.Fatal(err)
		}
		hit := res.HitRatio
		fmt.Printf("  %-44s %.4f\n", mask, hit)
		if hit > bestHit {
			bestHit, bestMask = hit, mask
		}
	}
	fmt.Printf("\nmost effective combination: %v (hit ratio %.4f)\n", bestMask, bestHit)
}
