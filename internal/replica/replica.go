// Package replica implements FARMER-enabled reliability (paper §4.3): files
// with strong inter-file correlations are grouped into logical replica
// groups, and backup/recovery of a replica group is an atomic operation so
// strongly-correlated files stay mutually consistent.
package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// GroupID identifies a replica group.
type GroupID int

// Source is the mined-state read surface grouping needs; core.Model and
// core.ShardedModel both satisfy it. Groups are a function of mined state
// alone: any miner holding the same state — a replication follower at the
// primary's position, a store reopened from a checkpoint — builds the same
// groups, so they are derived where they are needed, never shipped.
type Source interface {
	CorrelatorList(f trace.FileID) []core.Correlator
}

// Manager assigns files to replica groups from mined correlations and
// tracks per-group backup versions with atomic group commit.
type Manager struct {
	mu       sync.RWMutex
	groups   map[GroupID][]trace.FileID
	ofFile   map[trace.FileID]GroupID
	versions map[GroupID]uint64
	// backups[g][v] holds the file set captured at version v.
	backups map[GroupID]map[uint64][]trace.FileID
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		groups:   make(map[GroupID][]trace.FileID),
		ofFile:   make(map[trace.FileID]GroupID),
		versions: make(map[GroupID]uint64),
		backups:  make(map[GroupID]map[uint64][]trace.FileID),
	}
}

// BuildGroups derives replica groups from a mined model: files whose mutual
// correlation degree clears minDegree land in one group (greedy, strongest
// lists first), everything else gets a singleton group. A manager groups
// once: one that already holds groups refuses, and regrouping evolved mined
// state takes a new manager.
func (mgr *Manager) BuildGroups(m Source, fileCount int, minDegree float64) error {
	if fileCount <= 0 {
		return fmt.Errorf("replica: fileCount %d", fileCount)
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if len(mgr.groups) > 0 {
		return errors.New("replica: groups already built")
	}
	mgr.rebuildLocked(m, fileCount, minDegree)
	return nil
}

// rebuildLocked computes the grouping, holding mgr.mu. Deterministic: seeds
// are ordered by total degree (ties toward the lowest id), so two managers
// over bit-identical models produce identical groups.
func (mgr *Manager) rebuildLocked(m Source, fileCount int, minDegree float64) {
	type seed struct {
		f trace.FileID
		s float64
	}
	seeds := make([]seed, 0, fileCount)
	for f := 0; f < fileCount; f++ {
		id := trace.FileID(f)
		var s float64
		for _, c := range m.CorrelatorList(id) {
			s += c.Degree
		}
		seeds = append(seeds, seed{id, s})
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].s != seeds[j].s {
			return seeds[i].s > seeds[j].s
		}
		return seeds[i].f < seeds[j].f
	})
	next := GroupID(0)
	for _, sd := range seeds {
		if _, done := mgr.ofFile[sd.f]; done {
			continue
		}
		members := []trace.FileID{sd.f}
		mgr.ofFile[sd.f] = next
		for _, c := range m.CorrelatorList(sd.f) {
			if c.Degree < minDegree {
				break
			}
			if int(c.File) >= fileCount {
				continue
			}
			if _, done := mgr.ofFile[c.File]; done {
				continue
			}
			mgr.ofFile[c.File] = next
			members = append(members, c.File)
		}
		mgr.groups[next] = members
		next++
	}
}

// GroupOf returns the replica group of a file.
func (mgr *Manager) GroupOf(f trace.FileID) (GroupID, bool) {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	g, ok := mgr.ofFile[f]
	return g, ok
}

// Members returns a copy of a group's file set.
func (mgr *Manager) Members(g GroupID) []trace.FileID {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	return append([]trace.FileID(nil), mgr.groups[g]...)
}

// Groups reports the number of replica groups.
func (mgr *Manager) Groups() int {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	return len(mgr.groups)
}

// Backup atomically captures a group: either every member is recorded under
// the new version or the backup does not happen. It returns the new version.
func (mgr *Manager) Backup(g GroupID) (uint64, error) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	members, ok := mgr.groups[g]
	if !ok {
		return 0, fmt.Errorf("replica: unknown group %d", g)
	}
	v := mgr.versions[g] + 1
	snap := append([]trace.FileID(nil), members...)
	byVer := mgr.backups[g]
	if byVer == nil {
		byVer = make(map[uint64][]trace.FileID)
		mgr.backups[g] = byVer
	}
	byVer[v] = snap
	mgr.versions[g] = v
	return v, nil
}

// Recover returns the file set of a group at a version; the whole set is
// returned or an error — never a partial group.
func (mgr *Manager) Recover(g GroupID, version uint64) ([]trace.FileID, error) {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	byVer, ok := mgr.backups[g]
	if !ok {
		return nil, fmt.Errorf("replica: group %d has no backups", g)
	}
	snap, ok := byVer[version]
	if !ok {
		return nil, fmt.Errorf("replica: group %d has no version %d", g, version)
	}
	return append([]trace.FileID(nil), snap...), nil
}
