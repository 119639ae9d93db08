package replica

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func minedModel(t *testing.T) (*core.Model, int) {
	t.Helper()
	tr := tracegen.HP(8000).MustGenerate()
	cfg := core.DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	m := core.New(cfg)
	m.FeedTrace(tr)
	return m, tr.FileCount
}

func TestBuildGroupsPartition(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	// Every file is in exactly one group.
	count := 0
	for g := GroupID(0); int(g) < mgr.Groups(); g++ {
		count += len(mgr.Members(g))
	}
	if count != files {
		t.Fatalf("groups cover %d files, want %d", count, files)
	}
	for f := 0; f < files; f++ {
		if _, ok := mgr.GroupOf(trace.FileID(f)); !ok {
			t.Fatalf("file %d ungrouped", f)
		}
	}
	if mgr.Groups() >= files {
		t.Fatal("no multi-member replica groups formed")
	}
}

func TestBuildGroupsTwiceFails(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := mgr.BuildGroups(m, files, 0.4); err == nil {
		t.Fatal("second BuildGroups accepted")
	}
}

func TestBuildGroupsValidation(t *testing.T) {
	m, _ := minedModel(t)
	if err := NewManager().BuildGroups(m, 0, 0.4); err == nil {
		t.Fatal("fileCount 0 accepted")
	}
}

func TestBackupRecoverAtomicity(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	var g GroupID
	for id := GroupID(0); int(id) < mgr.Groups(); id++ {
		if len(mgr.Members(id)) > 1 {
			g = id
			break
		}
	}
	members := mgr.Members(g)
	v1, err := mgr.Backup(g)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || mgr.versions[g] != 1 {
		t.Fatalf("version = %d", v1)
	}
	v2, _ := mgr.Backup(g)
	if v2 != 2 {
		t.Fatalf("second backup version = %d", v2)
	}
	got, err := mgr.Recover(g, v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(members) {
		t.Fatalf("recovered %d members, want %d (atomic group)", len(got), len(members))
	}
}

func TestRecoverErrors(t *testing.T) {
	mgr := NewManager()
	if _, err := mgr.Recover(0, 1); err == nil {
		t.Fatal("recover of unknown group accepted")
	}
	if _, err := mgr.Backup(99); err == nil {
		t.Fatal("backup of unknown group accepted")
	}
}

func TestConcurrentBackups(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := mgr.Backup(0); err != nil {
					t.Error(err)
					return
				}
				mgr.Members(0)
				mgr.GroupOf(0)
			}
		}()
	}
	wg.Wait()
	if mgr.versions[0] != 400 {
		t.Fatalf("version = %d, want 400 (no lost updates)", mgr.versions[0])
	}
}

// TestRebuildReplacesGroups: grouping is a function of mined state alone —
// two managers over one model build identical groups (rebuildLocked orders
// seeds by total degree, ties toward the lowest id). This is what lets any
// miner holding the state, a follower or a reopened store, derive the same
// groups instead of being sent them.
func TestRebuildReplacesGroups(t *testing.T) {
	m, files := minedModel(t)
	a, b := NewManager(), NewManager()
	for _, mgr := range []*Manager{a, b} {
		if err := mgr.BuildGroups(m, files, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if a.Groups() == 0 || a.Groups() >= files {
		t.Fatalf("%d groups over %d files", a.Groups(), files)
	}
	if !reflect.DeepEqual(a.groups, b.groups) || !reflect.DeepEqual(a.ofFile, b.ofFile) {
		t.Fatal("two managers over one model built different groups")
	}
}

// TestRegroupRacesBackup drives Backup against Recover, GroupOf and Members
// from many goroutines — the -race coverage for a group cut that readers
// observe mid-flight. A Recover that finds a version sees the group's whole
// member set, never a part of it.
func TestRegroupRacesBackup(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	const groups = 8
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := GroupID((i + w) % groups)
				switch i % 4 {
				case 0:
					if v, err := mgr.Backup(g); err != nil || v == 0 {
						t.Errorf("backup of group %d: version %d, %v", g, v, err)
						return
					}
				case 1:
					if snap, err := mgr.Recover(g, 1); err == nil && len(snap) != len(mgr.Members(g)) {
						t.Errorf("group %d recovered %d of %d members", g, len(snap), len(mgr.Members(g)))
						return
					}
				case 2:
					f := trace.FileID(i)
					if g, ok := mgr.GroupOf(f); !ok || !slices.Contains(mgr.Members(g), f) {
						t.Errorf("file %d: group %d (%v) does not list it", f, g, ok)
						return
					}
				case 3:
					if len(mgr.Members(g)) == 0 {
						t.Errorf("group %d empty", g)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var cuts uint64
	for g := GroupID(0); g < groups; g++ {
		cuts += mgr.versions[g]
	}
	if cuts != 4*50 {
		t.Fatalf("%d backup versions, want %d (no lost updates)", cuts, 4*50)
	}
}
