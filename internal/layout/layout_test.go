package layout

import (
	"testing"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func minedModel(t *testing.T, records int) (*core.Model, *trace.Trace) {
	t.Helper()
	tr := tracegen.HP(records).MustGenerate()
	cfg := core.DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	m := core.New(cfg)
	m.FeedTrace(tr)
	return m, tr
}

func fixedSize(sz int64) func(trace.FileID) int64 {
	return func(trace.FileID) int64 { return sz }
}

func TestBuildCoversEveryFile(t *testing.T) {
	m, tr := minedModel(t, 8000)
	plan, err := Build(m, tr.FileCount, fixedSize(128<<10), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < tr.FileCount; f++ {
		if plan.GroupOf(trace.FileID(f)) < 0 {
			t.Fatalf("file %d unplaced", f)
		}
	}
	// No file in two groups.
	seen := map[trace.FileID]bool{}
	for _, g := range plan.Groups {
		for _, f := range g.Files {
			if seen[f] {
				t.Fatalf("file %d placed twice", f)
			}
			seen[f] = true
		}
	}
}

func TestBuildRespectsBounds(t *testing.T) {
	m, tr := minedModel(t, 8000)
	cfg := Config{MaxGroupBytes: 256 << 10, MinDegree: 0.4, MaxGroupFiles: 3}
	plan, err := Build(m, tr.FileCount, fixedSize(100<<10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups {
		if len(g.Files) > cfg.MaxGroupFiles {
			t.Fatalf("group exceeds member bound: %d", len(g.Files))
		}
		if g.Bytes > cfg.MaxGroupBytes {
			t.Fatalf("group exceeds byte bound: %d", g.Bytes)
		}
	}
}

func TestBuildGroupsCorrelatedFiles(t *testing.T) {
	m, tr := minedModel(t, 12000)
	plan, err := Build(m, tr.FileCount, fixedSize(64<<10), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, g := range plan.Groups {
		if len(g.Files) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-file groups formed on a correlated workload")
	}
}

func TestBuildValidation(t *testing.T) {
	m, _ := minedModel(t, 1000)
	if _, err := Build(m, 0, fixedSize(1), DefaultConfig()); err == nil {
		t.Fatal("fileCount 0 accepted")
	}
	if _, err := Build(m, 10, fixedSize(1), Config{}); err == nil {
		t.Fatal("zero bounds accepted")
	}
}

// TestLayoutSpeedsUpCorrelatedReplay (E12): replaying the workload's
// demand sequence over the grouped plan must need fewer I/Os and less time
// than ungrouped random reads.
func TestLayoutSpeedsUpCorrelatedReplay(t *testing.T) {
	m, tr := minedModel(t, 12000)
	sizes := fixedSize(128 << 10)
	plan, err := Build(m, tr.FileCount, sizes, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var accesses []trace.FileID
	for i := range tr.Records {
		accesses = append(accesses, tr.Records[i].File)
	}
	dm := DefaultDiskModel()
	grouped := dm.Cost(accesses, sizes, plan)
	random := dm.Cost(accesses, sizes, nil)
	if grouped.IOs >= random.IOs {
		t.Fatalf("grouped IOs %d >= random IOs %d", grouped.IOs, random.IOs)
	}
	if grouped.Time >= random.Time {
		t.Fatalf("grouped time %v >= random time %v", grouped.Time, random.Time)
	}
}

func TestDiskModelSingleton(t *testing.T) {
	dm := DiskModel{Seek: 10 * time.Millisecond, Bandwidth: 1e6, CacheWindow: 2}
	sizes := fixedSize(1e6) // 1s transfer each
	res := dm.Cost([]trace.FileID{1, 2, 3}, sizes, nil)
	if res.IOs != 3 {
		t.Fatalf("IOs = %d", res.IOs)
	}
	want := 3 * (10*time.Millisecond + time.Second)
	if res.Time != want {
		t.Fatalf("time = %v, want %v", res.Time, want)
	}
}

func TestDiskModelWindowEviction(t *testing.T) {
	// Two groups, window of 1: alternating access pattern re-fetches.
	plan := &Plan{
		Groups: []Group{{Files: []trace.FileID{0}}, {Files: []trace.FileID{1}}},
		index:  map[trace.FileID]int{0: 0, 1: 1},
	}
	dm := DiskModel{Seek: time.Millisecond, Bandwidth: 1e9, CacheWindow: 1}
	sizes := fixedSize(1000)
	res := dm.Cost([]trace.FileID{0, 1, 0, 1}, sizes, plan)
	if res.IOs != 4 {
		t.Fatalf("window eviction broken: IOs = %d, want 4", res.IOs)
	}
	res2 := dm.Cost([]trace.FileID{0, 0, 1, 1}, sizes, plan)
	if res2.IOs != 2 {
		t.Fatalf("window reuse broken: IOs = %d, want 2", res2.IOs)
	}
}

func TestColocated(t *testing.T) {
	plan := &Plan{
		Groups: []Group{{Files: []trace.FileID{0, 1}}, {Files: []trace.FileID{2}}},
		index:  map[trace.FileID]int{0: 0, 1: 0, 2: 1},
	}
	if g := plan.GroupOf(0); g < 0 || g != plan.GroupOf(1) {
		t.Fatal("0 and 1 should be colocated")
	}
	if plan.GroupOf(0) == plan.GroupOf(2) {
		t.Fatal("0 and 2 should not be colocated")
	}
	if plan.GroupOf(99) != -1 {
		t.Fatal("unknown file placed in a group")
	}
}
