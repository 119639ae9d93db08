// Command bench is FARMER's end-to-end benchmark: it builds cmd/farmerd from
// the checkout it runs in, starts real daemon processes on loopback, drives
// them through farmer.Dial from this one generator process, prints every
// metric by name with its unit, and verifies the mined output against an
// in-process sequential miner. See README.md.
//
//	go -C bench run .                       all workloads, end to end and per layer
//	go -C bench run . --workload W --seed N --seconds S --trace 0|1
//	go -C bench run . -compare A.json B.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run only this workload (default: all four, untraced then traced)")
	seed := flag.Uint64("seed", 1, "tracegen.Profile.Seed of every workload's trace; farmerd sees only the generated records")
	seconds := flag.Float64("seconds", 20, "measuring time per workload: timed cycles run until it is spent")
	traced := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	outDir := flag.String("out", "out", "directory for the farmerd binary, WALs, span files and the JSON report")
	compare := flag.Bool("compare", false, "compare two JSON reports (arguments: A.json B.json) against BENCHMARK.json's bounds")
	benchmark := flag.String("benchmark", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, for -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench -compare wants two reports: A.json B.json")
			return 2
		}
		return compareReports(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	sps := specs()
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		sps = []spec{sp}
	}

	ctx := context.Background()
	bin, buildTime, err := buildFarmerd(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// One generator process, one load goroutine, one connection per
	// workload, and after the build one CPU for the generator and every
	// daemon it starts (see pinToOneCPU).
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runtime.GOMAXPROCS(1)
	fmt.Printf("generator and daemons pinned to CPU %d\n", cpu)
	rep := newReport(*seed, *seconds, buildTime.Seconds())
	fmt.Printf("harness.build_s %.3f s\n", rep.BuildS)

	failed := false
	if *workload == "" || *traced == 0 {
		results, err := runUntraced(ctx, sps, defaultSizes, *seed, *seconds, bin, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, results...)
	}
	if *workload == "" || *traced != 0 {
		for _, sp := range sps {
			res, err := runTraced(ctx, sp, defaultSizes, *seed, rep.BuildS, bin, *outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rep.Workloads = append(rep.Workloads, res)
		}
	}
	for i := range rep.Workloads {
		rep.Workloads[i].print(os.Stdout)
		failed = failed || !rep.Workloads[i].Correct
	}
	name := "report.json"
	if *workload != "" {
		name = fmt.Sprintf("report_%s_trace%d.json", *workload, *traced)
	}
	if err := rep.writeFile(filepath.Join(*outDir, name)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *workload != "" {
		// The driver reads the last line of standard output.
		fmt.Println(rep.Workloads[0].driverLine())
	}
	if failed {
		return 1
	}
	return 0
}
