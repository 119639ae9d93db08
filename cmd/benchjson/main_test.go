package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseResult(t *testing.T) {
	r, ok := parseResult("BenchmarkIngestSharded/shards=4-8   \t  12\t  98765 ns/op\t  200000 records/s", "farmer")
	if !ok {
		t.Fatal("result line rejected")
	}
	if r.Name != "BenchmarkIngestSharded/shards=4-8" || r.Iterations != 12 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 98765 || r.Metrics["records/s"] != 200000 {
		t.Fatalf("metrics %+v", r.Metrics)
	}
	if _, ok := parseResult("BenchmarkFoo logs something", "p"); ok {
		t.Fatal("log line accepted as a result")
	}
}

func writeRun(t *testing.T, name string, results []Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	data, err := json.Marshal(Output{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiff(t *testing.T) {
	base := []Result{{
		Name: "BenchmarkIngestSharded/shards=4-8", Pkg: "farmer", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1000, "records/s": 100000, "B/op": 64},
	}}
	within := writeRun(t, "within.json", []Result{{
		Name: "BenchmarkIngestSharded/shards=4-8", Pkg: "farmer", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1100, "records/s": 90000, "B/op": 9999},
	}})
	slower := writeRun(t, "slower.json", []Result{{
		Name: "BenchmarkIngestSharded/shards=4-8", Pkg: "farmer", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1500, "records/s": 100000},
	}})
	lowRate := writeRun(t, "lowrate.json", []Result{{
		Name: "BenchmarkIngestSharded/shards=4-8", Pkg: "farmer", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1000, "records/s": 70000},
	}})
	smoke := writeRun(t, "smoke.json", []Result{{
		Name: "BenchmarkIngestSharded/shards=4-8", Pkg: "farmer", Iterations: 1,
		Metrics: map[string]float64{"ns/op": 99999, "records/s": 1},
	}})
	old := writeRun(t, "old.json", base)

	if c := runDiff(old, within, 0.20); c != 0 {
		t.Fatalf("within threshold: exit %d, want 0", c)
	}
	if c := runDiff(old, slower, 0.20); c != 1 {
		t.Fatalf("ns/op regression: exit %d, want 1", c)
	}
	if c := runDiff(old, lowRate, 0.20); c != 1 {
		t.Fatalf("records/s regression: exit %d, want 1", c)
	}
	// allocs/op is tracked like ns/op: one allocation per op becoming two fails.
	oneAlloc := []Result{{Name: "BenchmarkFeed-8", Pkg: "farmer/internal/core", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1500, "allocs/op": 1, "B/op": 55}}}
	twoAllocs := []Result{{Name: "BenchmarkFeed-8", Pkg: "farmer/internal/core", Iterations: 10,
		Metrics: map[string]float64{"ns/op": 1500, "allocs/op": 2, "B/op": 55}}}
	if c := runDiff(writeRun(t, "one.json", oneAlloc), writeRun(t, "two.json", twoAllocs), 0.20); c != 1 {
		t.Fatalf("allocs/op regression: exit %d, want 1", c)
	}
	// A single-iteration row is reported but never gated.
	if c := runDiff(old, smoke, 0.20); c != 0 {
		t.Fatalf("smoke row gated: exit %d, want 0", c)
	}
	// A benchmark with no previous measurement cannot regress.
	if c := runDiff(writeRun(t, "empty.json", nil), within, 0.20); c != 0 {
		t.Fatalf("new benchmark: exit %d, want 0", c)
	}
	if c := runDiff(filepath.Join(t.TempDir(), "missing.json"), within, 0.20); c != 1 {
		t.Fatalf("missing old file: exit %d, want 1", c)
	}
}
