// Top-k correlation groups by strength — the paper's §4 evaluation
// artifacts (which files correlate, and how strongly) computed live from
// the mined model so `farmerctl top` can stream them from a running
// daemon instead of reconstructing them post-hoc from a checkpoint.
package core

import (
	"sort"

	"farmer/internal/trace"
)

// CorrelatedGroup is one file's correlation neighborhood ranked for the
// live top-k view: the seed file, the members of its Correlator List (in
// stored order, strongest first), and the group's strength — the sum of
// the list's correlation degrees, the same key replica.Manager orders its
// grouping seeds by.
type CorrelatedGroup struct {
	Seed     trace.FileID
	Files    []trace.FileID
	Strength float64
}

// TopGroups returns the k strongest correlation groups, ordered by
// decreasing strength with ties toward the lowest seed id (deterministic:
// two bit-identical models return identical rankings). k <= 0 returns nil.
func (m *Model) TopGroups(k int) []CorrelatedGroup {
	if k <= 0 {
		return nil
	}
	m.mu.RLock()
	var groups []CorrelatedGroup
	for f, fp := range m.files {
		l := fp.list
		if len(l) == 0 {
			continue
		}
		g := CorrelatedGroup{Seed: f, Files: make([]trace.FileID, len(l))}
		for i, c := range l {
			g.Files[i] = c.File
			g.Strength += c.Degree
		}
		groups = append(groups, g)
	}
	m.mu.RUnlock()
	return topK(groups, k)
}

// TopGroups merges the shards' rankings: group membership never crosses a
// shard boundary (a file's list lives only on its owning shard), so the
// global top-k is exactly the k best of the per-shard top-k's.
func (s *ShardedModel) TopGroups(k int) []CorrelatedGroup {
	if k <= 0 {
		return nil
	}
	var all []CorrelatedGroup
	for _, m := range s.shards {
		all = append(all, m.TopGroups(k)...)
	}
	return topK(all, k)
}

// topK sorts by strength descending (ties toward the lowest seed) and
// truncates to k.
func topK(groups []CorrelatedGroup, k int) []CorrelatedGroup {
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Strength != groups[j].Strength {
			return groups[i].Strength > groups[j].Strength
		}
		return groups[i].Seed < groups[j].Seed
	})
	if len(groups) > k {
		groups = groups[:k]
	}
	return groups
}
