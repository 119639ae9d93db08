package replica

import (
	"sync"
	"testing"
	"time"

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
	if v1 != 1 || mgr.VersionTotal() != 1 {
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
	if mgr.VersionTotal() != 400 {
		t.Fatalf("version = %d, want 400 (no lost updates)", mgr.VersionTotal())
	}
}

// TestRebuildReplacesGroups: a regroup over evolved mined state replaces
// the grouping atomically and deterministically (two managers rebuilt from
// the same model fingerprint identically), and backup versions survive.
func TestRebuildReplacesGroups(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	if mgr.BackupAll() != mgr.Groups() {
		t.Fatal("BackupAll did not cut every group")
	}
	cuts := mgr.VersionTotal()
	if cuts == 0 {
		t.Fatal("no versions after BackupAll")
	}
	if err := mgr.Rebuild(m, files, 0.5); err != nil {
		t.Fatal(err)
	}
	if mgr.Groups() == 0 {
		t.Fatal("rebuild produced no groups")
	}
	if got := mgr.VersionTotal(); got != cuts {
		t.Fatalf("rebuild disturbed backup versions: %d != %d", got, cuts)
	}

	other := NewManager()
	if err := other.Rebuild(m, files, 0.5); err != nil {
		t.Fatal(err)
	}
	other.BackupAll()
	mgr2 := NewManager()
	if err := mgr2.Rebuild(m, files, 0.5); err != nil {
		t.Fatal(err)
	}
	mgr2.BackupAll()
	if other.Fingerprint() != mgr2.Fingerprint() {
		t.Fatal("deterministic rebuild fingerprints differ")
	}
}

// TestRegroupRacesBackup drives Rebuild against Backup/BackupAll/readers
// from many goroutines — the -race coverage for the replication path, where
// a primary's periodic regroup can race a client-commanded group backup.
// Every observation must be of a complete grouping: a Backup that wins a
// group id mid-race still captures that group's full member set.
func TestRegroupRacesBackup(t *testing.T) {
	m, files := minedModel(t)
	mgr := NewManager()
	if err := mgr.BuildGroups(m, files, 0.4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		degrees := []float64{0.4, 0.45, 0.5, 0.55}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mgr.Rebuild(m, files, degrees[i%len(degrees)]); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					mgr.BackupAll()
				case 1:
					if v, err := mgr.Backup(GroupID(i % 8)); err == nil && v == 0 {
						t.Errorf("backup succeeded but version is 0")
						return
					}
				case 2:
					if g, ok := mgr.GroupOf(trace.FileID(i)); ok {
						members := mgr.Members(g)
						found := false
						for _, f := range members {
							if f == trace.FileID(i) {
								found = true
								break
							}
						}
						// A Rebuild between GroupOf and Members may have
						// reassigned the file; what must never happen is an
						// empty group.
						if len(members) == 0 {
							t.Errorf("group %d empty", g)
							return
						}
						_ = found
					}
				case 3:
					mgr.Fingerprint()
					mgr.VersionTotal()
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let rebuilds overlap the workers
	close(stop)
	wg.Wait()
}
