// Quickstart: mine file correlations from a synthetic workload with the
// public API and ask the model for prefetch candidates.
package main

import (
	"fmt"
	"log"

	"farmer"
)

func main() {
	// Generate a small HP-style workload (236-user time-sharing server with
	// full path attributes).
	workload, err := farmer.Generate(farmer.HP(20000))
	if err != nil {
		log.Fatal(err)
	}

	// Build a FARMER model with the paper's parameters (p = 0.7,
	// max_strength = 0.4, IPA path handling) adapted to the trace schema.
	miner, err := farmer.Open(farmer.ConfigFor(workload))
	if err != nil {
		log.Fatal(err)
	}
	defer miner.Close()
	model := miner.Sharded()

	// Stage 1-4 run incrementally, one request at a time.
	for i := range workload.Records {
		model.Feed(&workload.Records[i])
	}

	// Inspect the mined knowledge: pick the busiest file and show its
	// Correlator List.
	counts := map[farmer.FileID]int{}
	for i := range workload.Records {
		counts[workload.Records[i].File]++
	}
	var hot farmer.FileID
	best := 0
	for f, c := range counts {
		if c > best {
			hot, best = f, c
		}
	}

	fmt.Printf("workload: %d records over %d files\n", workload.Len(), workload.FileCount)
	fmt.Printf("hottest file: %d (%d accesses)\n\n", hot, best)
	fmt.Println("Correlator List (successor, degree = 0.7*sim + 0.3*freq):")
	for _, c := range model.CorrelatorList(hot) {
		fmt.Printf("  file %-6d degree %.3f  (sim %.3f, freq %.3f)\n", c.File, c.Degree, c.Sim, c.Freq)
	}

	fmt.Println("\nprefetch candidates (top 4):", model.Predict(hot, 4))

	st := model.Stats()
	fmt.Printf("\nmodel footprint: %d files tracked, %d correlators, %.2f MB\n",
		st.TrackedFiles, st.Correlators, float64(st.MemoryBytes)/(1<<20))
}
