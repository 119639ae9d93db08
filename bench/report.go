package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metric is one named measurement of one workload.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Rounds are the per-round raw values of a timing. Value is their best
	// decile (setup_s: their median) and Median their median; both are empty
	// for a count.
	Median float64   `json:"median,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
	// Samples is how many observations the rounds held between them; Beyond
	// how many of them lay above their round's percentile.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"beyond,omitempty"`
}

// workloadResult is everything one workload reported in one run.
type workloadResult struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	GateError string `json:"gate_error,omitempty"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`

	FarmerdArgv  [][]string `json:"farmerd_argv"`
	RoundRecords int        `json:"round_records"`
	MainRounds   int        `json:"main_rounds"`

	Metrics []metric `json:"metrics"`
}

func (w *workloadResult) add(m metric) { w.Metrics = append(w.Metrics, m) }

func (w *workloadResult) get(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// report is the JSON document a run writes: the metrics and what produced
// them.
type report struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	BuildS     float64 `json:"harness_build_s"`

	Workloads []workloadResult `json:"workloads"`
}

func newReport(seed uint64, seconds, buildS float64) *report {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &report{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		BuildS:     buildS,
	}
}

func (r *report) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print renders one workload's metrics, each by name with its unit, the
// median and the per-round values behind it, and the sample counts.
func (w *workloadResult) print(out io.Writer) {
	mode := "end to end"
	if w.Traced {
		mode = "per layer (traced)"
	}
	fmt.Fprintf(out, "== %s, %s: ops_attempted=%d ops_failed=%d correct=%t\n", w.Workload, mode, w.Attempted, w.Failed, w.Correct)
	if w.GateError != "" {
		fmt.Fprintf(out, "   GATE: %s\n", w.GateError)
	}
	for _, m := range w.Metrics {
		fmt.Fprintf(out, "   %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(out, " n=%d", m.Samples)
		}
		if m.Beyond > 0 {
			fmt.Fprintf(out, " beyond=%d", m.Beyond)
		}
		if len(m.Rounds) > 0 {
			fmt.Fprintf(out, " median=%.6g rounds=[", m.Median)
			for i, v := range m.Rounds {
				if i > 0 {
					fmt.Fprint(out, " ")
				}
				fmt.Fprintf(out, "%.5g", v)
			}
			fmt.Fprint(out, "]")
		}
		fmt.Fprintln(out)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
func (w *workloadResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, make(map[string]mv, len(w.Metrics))}
	for _, m := range w.Metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN or Inf can fail to marshal, and seal has replaced them
	}
	return string(b)
}
