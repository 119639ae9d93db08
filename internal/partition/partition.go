// Package partition is the reusable dispatch layer behind every partitioned
// FARMER deployment: one sequenced replay of the global access stream fans
// the expensive per-file mining work out to the owners of the affected
// state, whatever those owners are — the in-process shards of a
// core.ShardedModel, or the simulated metadata servers of internal/hust's
// multi-MDS cluster. Events never leave the process that dispatched them.
//
// The layer exists because all FARMER mined state is keyed by the
// predecessor FileID: file x's Correlator List, its graph node (N_x and
// every N_xy) and its semantic vector live together, and nowhere else. A
// Dispatcher therefore needs to run only Stage 1 (attribute extraction) and
// the lookahead-window bookkeeping in global stream order; Stages 2-4 —
// edge credit, degree re-evaluation, list resorting — become Events routed
// to the owner of the predecessor's partition. Per-owner FIFO delivery in
// global stream order plus disjoint per-owner state make an N-way
// partitioned mine produce exactly the state a single sequential Model
// reaches on the same stream.
package partition

import "farmer/internal/trace"

// Partitioner maps a file to the index of the partition owning its mined
// state, out of n partitions. Implementations must be deterministic and
// return values in [0, n).
type Partitioner func(f trace.FileID, n int) int

// Stripe is the FileID-striping partitioner core.ShardedModel has always
// used: Fibonacci hashing on the upper half-word, so contiguously allocated
// correlation groups spread evenly across stripes.
func Stripe(f trace.FileID, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(f) * 0x9E3779B97F4A7C15 >> 32) % uint64(n))
}

// Hash spreads files uniformly across partitions (Fibonacci hashing) — the
// multi-MDS cluster's default placement, and the pessimistic case for
// correlation locality.
func Hash(f trace.FileID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint64(f) * 0x9E3779B97F4A7C15 % uint64(n))
}

// GroupSpan is the placement-unit width of Group: runs of GroupSpan adjacent
// file ids land on one partition.
const GroupSpan = 16

// Group co-locates runs of adjacent file ids (the workload generators
// allocate a correlation group's files contiguously, so this approximates
// correlation-aware placement via the paper's §4.2 grouping).
func Group(f trace.FileID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint64(f) / GroupSpan % uint64(n))
}
