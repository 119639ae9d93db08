// Package replica implements FARMER-enabled reliability (paper §4.3): files
// with strong inter-file correlations are grouped into logical replica
// groups, and backup/recovery of a replica group is an atomic operation so
// strongly-correlated files stay mutually consistent.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// GroupID identifies a replica group.
type GroupID int

// Source is the mined-state read surface grouping needs; core.Model and
// core.ShardedModel both satisfy it, so groups can be built from a
// single-lock miner, a sharded ensemble, or a replication follower's
// replica of either.
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
// lists first), everything else gets a singleton group. It is the one-shot
// form — a manager that already holds groups refuses; use Rebuild to
// regroup as the mined model evolves.
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

// Rebuild regroups from the model's CURRENT mined state, replacing the
// previous grouping atomically — readers and Backup never observe a partial
// regroup. Backup versions and retained backup snapshots survive (they are
// keyed by group id, which stays stable for the strongest seeds and is the
// monotonic counter the replication fingerprint compares), so a regroup
// racing a backup is safe under -race and a replicated pair that executes
// the same (rebuild, backup) sequence at the same stream position reaches
// the same fingerprint.
func (mgr *Manager) Rebuild(m Source, fileCount int, minDegree float64) error {
	if fileCount <= 0 {
		return fmt.Errorf("replica: fileCount %d", fileCount)
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	mgr.groups = make(map[GroupID][]trace.FileID)
	mgr.ofFile = make(map[trace.FileID]GroupID)
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

// BackupAll cuts a backup of EVERY group under one lock acquisition: the
// whole cut observes a single consistent grouping (a concurrent Rebuild
// lands entirely before or entirely after it, never inside), which is the
// "backup of a replica group is an atomic operation" rule of paper §4.3
// promoted to the full group set. It returns the number of groups cut.
func (mgr *Manager) BackupAll() int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	for g, members := range mgr.groups {
		v := mgr.versions[g] + 1
		byVer := mgr.backups[g]
		if byVer == nil {
			byVer = make(map[uint64][]trace.FileID)
			mgr.backups[g] = byVer
		}
		byVer[v] = append([]trace.FileID(nil), members...)
		mgr.versions[g] = v
	}
	return len(mgr.groups)
}

// Fingerprint hashes the manager's observable replication state — every
// group's id, membership (in stored order, which Rebuild makes
// deterministic) and backup version. A primary and a follower that executed
// the same (rebuild, backup) commands over bit-identical mined state agree
// on the fingerprint; any divergence in grouping or in cut history shows up
// as a mismatch.
func (mgr *Manager) Fingerprint() uint64 {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	ids := make([]GroupID, 0, len(mgr.groups))
	for g := range mgr.groups {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(uint64(len(ids)))
	for _, g := range ids {
		wr(uint64(g))
		wr(mgr.versions[g])
		members := mgr.groups[g]
		wr(uint64(len(members)))
		for _, f := range members {
			wr(uint64(f))
		}
	}
	return h.Sum64()
}

// VersionTotal reports the sum of every group's backup version — a cheap
// monotonic cut counter the wire's GroupsInfo carries.
func (mgr *Manager) VersionTotal() uint64 {
	mgr.mu.RLock()
	defer mgr.mu.RUnlock()
	var total uint64
	for _, v := range mgr.versions {
		total += v
	}
	return total
}
