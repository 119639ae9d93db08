package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySizes and tiny shrink every phase so the whole harness — real farmerd
// processes included — runs in a few seconds: one set-up, and with no time
// budget each timed phase runs two cycles.
var tinySizes = sizes{
	probeRounds: 1, probeChunks: 2,
	savesPerRound: 12, chunksPerSave: 1,
	minCycles:   2,
	sampleFiles: 64,
	setups:      1,

	layerPassChunks: 8,
}

// tiny sizes the trace so every percentile keeps ten samples beyond it over
// the two cycles: a median of batch acks needs more chunks than a p99 of
// single-record calls.
func (sp spec) tiny() spec {
	sp.traceChunks = 4
	sp.scaleFiles = 0
	if sp.readChunks > 0 {
		sp.readChunks = 2
	}
	if sp.kind == loopBatch {
		sp.traceChunks = 14 + sp.readChunks
	}
	if sp.saveEvery > 0 {
		sp.saveEvery = 1
	}
	return sp
}

type benchmarkMetrics struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var (
	metricName     = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	percentileName = regexp.MustCompile(`_p[0-9]+_`)
)

// checkResult asserts a workload result carries exactly the named metrics,
// each finite and unit-tagged, and that no percentile is reported from fewer
// than ten samples beyond it.
func checkResult(t *testing.T, res *workloadResult, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d gate=%q", res.Workload, res.Correct, res.Attempted, res.Failed, res.GateError)
	}
	for _, w := range want {
		m, ok := res.get(w.Name)
		if !ok {
			t.Errorf("%s: metric %s is missing", res.Workload, w.Name)
			continue
		}
		if m.Unit != w.Unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, w.Name, m.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range res.Metrics {
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", res.Workload, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", res.Workload, m.Name, m.Value)
		}
		if !res.Traced && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %v", res.Workload, m.Name, m.Value)
		}
		if !res.Traced && percentileName.MatchString(m.Name) && m.Beyond < 10 {
			t.Errorf("%s: %s is reported from %d samples beyond it", res.Workload, m.Name, m.Beyond)
		}
	}
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
		t.Fatalf("%s: driver line: %v", res.Workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
		t.Errorf("%s: driver line %s", res.Workload, res.driverLine())
	}
}

func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkMetrics
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scratch := t.TempDir()
	bin, buildTime, err := buildFarmerd(scratch)
	if err != nil {
		t.Fatal(err)
	}
	var sps []spec
	for _, sp := range specs() {
		sps = append(sps, sp.tiny())
	}
	results, err := runUntraced(ctx, sps, tinySizes, 11, 0, bin, scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		checkResult(t, &results[i], bm.EndToEnd)
	}
	for _, sp := range sps {
		res, err := runTraced(ctx, sp, tinySizes, 11, buildTime.Seconds(), bin, scratch)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, &res, bm.PerLayer)
		if _, err := os.Stat(filepath.Join(scratch, "trace_"+sp.name+".json")); err != nil {
			t.Errorf("%s: span file: %v", sp.name, err)
		}
	}
}

// TestGateFires corrupts the reference by one record and expects the gate to
// notice, and an op error to fail the gate by itself.
func TestGateFires(t *testing.T) {
	ctx := context.Background()
	scratch := t.TempDir()
	bin, _, err := buildFarmerd(scratch)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("ingest_batch")
	in, _, err := setUp(ctx, sp.tiny(), 11, bin, scratch)
	if err != nil {
		t.Fatal(err)
	}
	defer in.tearDown()
	in.runRound(ctx, "main", loopBatch, 2, 0)
	in.runRound(ctx, "read", loopDemand, 1, 0)

	ref := in.buildReference()
	if err := in.check(ctx, ref, 11, tinySizes.sampleFiles); err != nil {
		t.Fatalf("gate on a faithful reference: %v", err)
	}
	// One record the daemon never saw: counts, then lists, must mismatch.
	ref.model.Feed(&in.tr.Records[0])
	err = in.check(ctx, ref, 11, tinySizes.sampleFiles)
	if err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("gate on a corrupted reference: %v", err)
	}
	ref = in.buildReference()
	ref.lru.Hits++
	if err := in.check(ctx, ref, 11, tinySizes.sampleFiles); err == nil {
		t.Fatal("gate passed a client cache that differs from the FPA reference")
	}

	res := workloadResult{Workload: sp.name}
	res.add(metric{Name: "records_per_s", Unit: "rec/s", Value: 1})
	res.seal(in, in.check(ctx, ref, 11, tinySizes.sampleFiles))
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("a failed gate must fail every op: %+v", res)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bm := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bm, []byte(`{"end_to_end":[
		{"name":"records_per_s","unit":"rec/s","better":"higher","bound":0.1},
		{"name":"ack_p50_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rps, ack float64, ackRounds []float64) string {
		r := report{Commit: name, Seed: 1, Workloads: []workloadResult{{
			Workload: "feed_sync", Correct: true, Attempted: 10,
			Metrics: []metric{
				{Name: "records_per_s", Unit: "rec/s", Value: rps},
				{Name: "ack_p50_us", Unit: "us", Value: ack, Rounds: ackRounds},
			},
		}}}
		path := filepath.Join(dir, name+".json")
		if err := r.writeFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", 20000, 40, []float64{40, 40, 41, 41})
	same := write("same", 19000, 41, []float64{41, 41, 42, 42})
	slow := write("slow", 17000, 41, nil)
	wide := write("wide", 20000, 41, []float64{30, 41, 41, 60})

	var out bytes.Buffer
	if code := compareReports(&out, bm, base, same); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, bm, base, slow); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("15%% fewer records/s against a 10%% bound: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "of 20000") {
		t.Errorf("a ratio without its base:\n%s", out.String())
	}
	out.Reset()
	if code := compareReports(&out, bm, base, wide); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("round spread wider than the bound: exit %d\n%s", code, out.String())
	}
}
