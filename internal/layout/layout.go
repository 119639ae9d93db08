// Package layout implements FARMER-enabled file data layout (paper §4.2):
// strongly correlated small files are merged into contiguous on-disk groups
// so that a batch of correlated reads becomes one sequential I/O instead of
// many random ones. Only read-mostly files are grouped (the paper's initial
// policy); a Planner derives groups from sorted Correlator Lists and a
// simple disk model quantifies the batched-I/O win.
package layout

import (
	"fmt"
	"sort"
	"time"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// Config controls group formation.
type Config struct {
	// MaxGroupBytes bounds a group's total size (contiguous allocation unit).
	MaxGroupBytes int64
	// MinDegree is the minimum correlation degree for co-placement.
	MinDegree float64
	// MaxGroupFiles bounds member count per group.
	MaxGroupFiles int
}

// DefaultConfig uses a 1 MiB allocation unit, matching the paper's
// observation that average files are 108–189 KB so several correlated files
// fit one unit.
func DefaultConfig() Config {
	return Config{MaxGroupBytes: 1 << 20, MinDegree: 0.4, MaxGroupFiles: 16}
}

// Group is a set of files placed contiguously, in placement order.
type Group struct {
	Files []trace.FileID
	Bytes int64
}

// Plan is a complete placement: every file appears in exactly one group
// (singleton groups for uncorrelated files).
type Plan struct {
	Groups []Group
	index  map[trace.FileID]int
}

// GroupOf returns the index of the group holding f, or -1.
func (p *Plan) GroupOf(f trace.FileID) int {
	if i, ok := p.index[f]; ok {
		return i
	}
	return -1
}

// Build derives a placement plan from a mined FARMER model. sizes maps each
// file to its byte size; files absent from sizes get singleton groups.
// Greedy agglomeration: files are visited in decreasing total correlation
// strength; each seed pulls in its Correlator List in degree order while the
// group respects the byte and member bounds.
func Build(m *core.Model, fileCount int, sizes func(trace.FileID) int64, cfg Config) (*Plan, error) {
	if fileCount <= 0 {
		return nil, fmt.Errorf("layout: fileCount %d", fileCount)
	}
	if cfg.MaxGroupBytes <= 0 || cfg.MaxGroupFiles <= 0 {
		return nil, fmt.Errorf("layout: non-positive group bounds")
	}
	type seed struct {
		f        trace.FileID
		strength float64
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
		if seeds[i].strength != seeds[j].strength {
			return seeds[i].strength > seeds[j].strength
		}
		return seeds[i].f < seeds[j].f
	})

	plan := &Plan{index: make(map[trace.FileID]int, fileCount)}
	placed := make([]bool, fileCount)
	place := func(g *Group, f trace.FileID) {
		g.Files = append(g.Files, f)
		g.Bytes += sizes(f)
		placed[f] = true
	}
	for _, sd := range seeds {
		if placed[sd.f] {
			continue
		}
		g := Group{}
		place(&g, sd.f)
		for _, c := range m.CorrelatorList(sd.f) {
			if len(g.Files) >= cfg.MaxGroupFiles {
				break
			}
			if c.Degree < cfg.MinDegree {
				break // list is sorted; nothing stronger follows
			}
			if int(c.File) >= fileCount || placed[c.File] {
				continue
			}
			if g.Bytes+sizes(c.File) > cfg.MaxGroupBytes {
				continue
			}
			place(&g, c.File)
		}
		idx := len(plan.Groups)
		for _, f := range g.Files {
			plan.index[f] = idx
		}
		plan.Groups = append(plan.Groups, g)
	}
	return plan, nil
}

// DiskModel quantifies the I/O cost of serving an access sequence under a
// plan: the first read of a group costs a seek plus the whole group's
// transfer (batched read into cache); subsequent accesses to group members
// within the cache window are free; ungrouped or re-fetched files cost a
// seek plus their own transfer.
type DiskModel struct {
	Seek      time.Duration
	Bandwidth float64 // bytes/second
	// CacheWindow is how many distinct group fetches stay buffered.
	CacheWindow int
}

// DefaultDiskModel matches the OSD model elsewhere in the repository.
func DefaultDiskModel() DiskModel {
	return DiskModel{Seek: 5 * time.Millisecond, Bandwidth: 80e6, CacheWindow: 64}
}

// CostResult summarises a simulated replay over the disk model.
type CostResult struct {
	IOs       int
	Time      time.Duration
	BytesRead int64
}

// Cost replays accesses and returns total I/O count and time under the plan.
// A nil plan means every access is an independent random read.
func (d DiskModel) Cost(accesses []trace.FileID, sizes func(trace.FileID) int64, plan *Plan) CostResult {
	var res CostResult
	transfer := func(bytes int64) time.Duration {
		return time.Duration(float64(bytes) / d.Bandwidth * float64(time.Second))
	}
	if plan == nil {
		for _, f := range accesses {
			res.IOs++
			res.BytesRead += sizes(f)
			res.Time += d.Seek + transfer(sizes(f))
		}
		return res
	}
	window := make(map[int]int) // group -> recency stamp
	stamp := 0
	for _, f := range accesses {
		g := plan.GroupOf(f)
		if g < 0 {
			res.IOs++
			res.BytesRead += sizes(f)
			res.Time += d.Seek + transfer(sizes(f))
			continue
		}
		if _, ok := window[g]; ok {
			window[g] = stamp // refresh
			stamp++
			continue // served from the batched buffer
		}
		// Fetch the whole group with one sequential I/O.
		var bytes int64
		for _, member := range plan.Groups[g].Files {
			bytes += sizes(member)
		}
		res.IOs++
		res.BytesRead += bytes
		res.Time += d.Seek + transfer(bytes)
		window[g] = stamp
		stamp++
		if len(window) > d.CacheWindow {
			// Evict the least recently used group.
			lruG, lruS := -1, stamp
			for gid, s := range window {
				if s < lruS {
					lruG, lruS = gid, s
				}
			}
			delete(window, lruG)
		}
	}
	return res
}
