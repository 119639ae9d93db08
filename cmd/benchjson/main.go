// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so CI can archive benchmark runs as a machine-
// readable artifact (BENCH_results.json) and the perf trajectory can be
// diffed across commits.
//
// Usage:
//
//	go test -run '^$' -bench 'Ingest|Cluster' -benchtime 1x ./... | benchjson
//	benchjson -diff old.json new.json
//
// Each benchmark result line ("BenchmarkX-8  10  123 ns/op  45 records/s")
// becomes one entry carrying the iteration count and every reported metric;
// goos/goarch/cpu/pkg header lines are attached to the entries they precede.
//
// With -diff, two archived runs are compared instead: ns/op and allocs/op
// are lower-is-better, any "/s" metric is higher-is-better, and a regression
// beyond -threshold (default 20%) on a benchmark present in both runs makes
// the command exit 1. Rows measured with a single iteration in either run
// are reported but never gated — one iteration seeds the trajectory, it is
// not a measurement.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output is the whole archived run.
type Output struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	diff := flag.Bool("diff", false, "compare two archived runs (old.json new.json) instead of converting stdin")
	threshold := flag.Float64("threshold", 0.20, "fractional regression that fails the -diff comparison")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-threshold 0.20] old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *threshold))
	}
	convert()
}

func convert() {
	out := Output{Results: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseResult(line, pkg); ok {
				out.Results = append(out.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// runDiff compares two archived runs and returns the process exit code.
// Benchmarks are matched by package + name; metrics other than ns/op,
// allocs/op, B/op and rates ("/s" suffix) carry no agreed direction and are
// not compared.
func runDiff(oldPath, newPath string, threshold float64) int {
	oldRun, err := loadRun(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	newRun, err := loadRun(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	prev := map[string]Result{}
	for _, r := range oldRun.Results {
		prev[r.Pkg+"\x00"+r.Name] = r
	}

	regressions := 0
	for _, nr := range newRun.Results {
		or, ok := prev[nr.Pkg+"\x00"+nr.Name]
		if !ok {
			fmt.Printf("new       %-50s (no previous measurement)\n", nr.Name)
			continue
		}
		gated := or.Iterations > 1 && nr.Iterations > 1
		metrics := make([]string, 0, len(nr.Metrics))
		for m := range nr.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			lowerBetter := m == "ns/op" || m == "allocs/op" || m == "B/op"
			if !lowerBetter && !strings.HasSuffix(m, "/s") {
				continue
			}
			ov, ok := or.Metrics[m]
			if !ok || ov == 0 {
				continue
			}
			nv := nr.Metrics[m]
			// change > 0 is always "got worse" regardless of direction.
			change := (nv - ov) / ov
			if !lowerBetter {
				change = -change
			}
			status := "ok       "
			switch {
			case !gated:
				status = "untracked"
			case change > threshold:
				status = "REGRESSED"
				regressions++
			}
			fmt.Printf("%s %-50s %-12s %14.4g -> %-14.4g (%+.1f%%)\n",
				status, nr.Name, m, ov, nv, change*100)
		}
	}
	if regressions > 0 {
		fmt.Printf("\n%d metric(s) regressed more than %.0f%%\n", regressions, threshold*100)
		return 1
	}
	return 0
}

func loadRun(path string) (Output, error) {
	var out Output
	data, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// parseResult decodes one "BenchmarkName-P  N  v1 u1  v2 u2 ..." line. Lines
// that merely start with "Benchmark" but are not result rows (log output)
// fail the numeric parses and are skipped.
func parseResult(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Pkg: pkg, Iterations: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
