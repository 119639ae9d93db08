package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: the gated
// metrics, their direction and the bound fixed for each.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between the quartiles of v as a share of its
// median; 0 when there are too few values to have quartiles.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 4 || med == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / med
}

// everyBetter reports whether every round of b reads better than every round
// of a.
func everyBetter(a, b []float64, higher bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if higher && y <= x || !higher && y >= x {
				return false
			}
		}
	}
	return true
}

// byWorkload indexes a report's traced or untraced results.
func byWorkload(r *report, traced bool) map[string]*workloadResult {
	out := map[string]*workloadResult{}
	for i := range r.Workloads {
		if w := &r.Workloads[i]; w.Traced == traced {
			out[w.Workload] = w
		}
	}
	return out
}

// compareReports prints, for every end-to-end metric of every workload both
// reports hold, how much worse B reads than A as a share of A, beside the
// bound BENCHMARK.json fixes. It returns 1 when any metric is out of bounds
// or any workload failed its gate, 0 otherwise.
func compareReports(out io.Writer, benchmarkPath, pathA, pathB string) int {
	bf, err := readBenchmark(benchmarkPath)
	if err == nil && len(bf.EndToEnd) == 0 {
		err = fmt.Errorf("%s names no end_to_end metrics", benchmarkPath)
	}
	var a, b *report
	if err == nil {
		a, err = readReport(pathA)
	}
	if err == nil {
		b, err = readReport(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	fmt.Fprintf(out, "A: %s commit %s seed %d\nB: %s commit %s seed %d\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	if a.Seed != b.Seed {
		fmt.Fprintln(out, "note: the seeds differ, so the cache ratios and every count compare different inputs")
	}
	fmt.Fprintf(out, "%-18s %-18s %14s %14s %-6s %22s %6s  %s\n", "workload", "metric", "A", "B", "unit", "B worse by (of A)", "bound", "verdict")
	wa, wb := byWorkload(a, false), byWorkload(b, false)
	status := 0
	rows := 0
	for _, sp := range specs() {
		ra, rb := wa[sp.name], wb[sp.name]
		if ra == nil || rb == nil {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(out, "%-18s gate failed (A correct=%t, B correct=%t): every op counts as missing its limits\n", sp.name, ra.Correct, rb.Correct)
			status = 1
		}
		for _, em := range bf.EndToEnd {
			ma, okA := ra.get(em.Name)
			mb, okB := rb.get(em.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-18s %-18s missing from a report\n", sp.name, em.Name)
				status = 1
				continue
			}
			rows++
			higher := em.Better == "higher"
			worse := (mb.Value - ma.Value) / ma.Value
			if higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > em.Bound:
				verdict = "WORSE"
				status = 1
			case everyBetter(ma.Rounds, mb.Rounds, higher):
				verdict = "better"
			case max(spread(ma.Rounds), spread(mb.Rounds)) > em.Bound:
				verdict = fmt.Sprintf("unresolved (round spread %.1f%%)", 100*max(spread(ma.Rounds), spread(mb.Rounds)))
			}
			fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g %-6s %+8.2f%% of %-10.6g %5.1f%%  %s\n",
				sp.name, em.Name, ma.Value, mb.Value, em.Unit, 100*worse, ma.Value, 100*em.Bound, verdict)
		}
		if ra.Attempted != rb.Attempted || ra.Failed != rb.Failed {
			fmt.Fprintf(out, "%-18s ops attempted/failed: A %d/%d, B %d/%d\n", sp.name, ra.Attempted, ra.Failed, rb.Attempted, rb.Failed)
		}
	}
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "bench -compare: the reports share no untraced workload")
		return 2
	}
	compareCounts(out, a, b)
	return status
}

// compareCounts lists the per-layer counts of the traced runs both reports
// hold and whether each repeats exactly. Informational: per-layer metrics
// are not gated.
func compareCounts(out io.Writer, a, b *report) {
	ta, tb := byWorkload(a, true), byWorkload(b, true)
	for _, sp := range specs() {
		ra, rb := ta[sp.name], tb[sp.name]
		if ra == nil || rb == nil {
			continue
		}
		var differ []string
		same := 0
		for _, ma := range ra.Metrics {
			if ma.Unit != "count" && ma.Unit != "B" {
				continue
			}
			if mb, ok := rb.get(ma.Name); ok && mb.Value == ma.Value {
				same++
			} else {
				differ = append(differ, fmt.Sprintf("%s (A %.6g, B %.6g)", ma.Name, ma.Value, mb.Value))
			}
		}
		fmt.Fprintf(out, "%-18s per-layer counts: %d repeat exactly", sp.name, same)
		if len(differ) > 0 {
			fmt.Fprintf(out, ", %d differ: %v", len(differ), differ)
		}
		fmt.Fprintln(out)
	}
}
