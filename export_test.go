package farmer

import (
	"context"
	"time"
)

// Test seams for the farmer package's external (farmer_test) tests. Each
// setter replaces a package value and returns the function that restores it.

func swap[T any](p *T, v T) (restore func()) {
	old := *p
	*p = v
	return func() { *p = old }
}

// SetSaveToStore replaces the checkpoint body behind LocalMiner.Save — how
// the drain tests stand in a store write that hangs.
func SetSaveToStore(fn func(sm *ShardedModel, st *Store) error) (restore func()) {
	return swap(&saveToStore, fn)
}

// SetSaveBudgetFloor lowers the one-minute floor of the routine-checkpoint
// bound, so a hung client-requested Save is abandoned at DrainTimeout.
func SetSaveBudgetFloor(d time.Duration) (restore func()) { return swap(&saveBudgetFloor, d) }

// SetReplicaAckTimeout shortens the follower ack and attach bound.
func SetReplicaAckTimeout(d time.Duration) (restore func()) { return swap(&replicaAckTimeout, d) }

// SeekWritable exposes the failover promotion sweep for the regression
// tests around its never-nil-without-a-Promote invariant.
func (m *RemoteMiner) SeekWritable(ctx context.Context) error { return m.seekWritable(ctx) }

// DropConn discards the current connection without closing the miner — the
// tests' stand-in for a transport that died underneath the client.
func (m *RemoteMiner) DropConn() {
	m.mu.Lock()
	c := m.c
	m.c = nil
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// AttachMetrics registers a miner's series into reg the way Serve does for
// ServeConfig.Obs — for tests and benchmarks that scrape an in-process miner.
func (m *LocalMiner) AttachMetrics(reg *MetricsRegistry) { m.attachMetrics(reg) }
