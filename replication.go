package farmer

import (
	"fmt"

	"farmer/internal/core"
	"farmer/internal/rpc"
)

// This file is the miner half of farmerd replication (the serving half
// lives in serve.go, the stream itself in internal/rpc): cutting the
// catch-up checkpoint a follower bootstraps from, and installing one on the
// follower side.

// catchupCut cuts the miner's complete mined state — lists, vectors,
// correlation graph, lookahead window and ingest position — into one
// rpc.CatchupCut whose snapshot is the put frames a full checkpoint stages
// (core.ShardedModel.Cut). The caller (rpc.Replicator.Attach) serializes the
// cut against ingestion, so position, snapshot and fingerprint describe the
// same record boundary. The cut leaves the checkpoint binding alone, so the
// miner's next Save is still a delta.
func (m *LocalMiner) catchupCut() (rpc.CatchupCut, error) {
	snap, err := m.sm.Cut()
	if err != nil {
		return rpc.CatchupCut{}, fmt.Errorf("farmer: cutting catch-up checkpoint: %w", err)
	}
	fc := m.sm.TrackedFileCount()
	return rpc.CatchupCut{
		Pos:         m.sm.Fed(),
		Fingerprint: core.StateFingerprint(m.sm, fc),
		FileCount:   fc,
		Snapshot:    snap,
	}, nil
}

// catchupFingerprint reports the miner's current state fingerprint and the
// tracked-file bound it covers — what a resume's final frame carries for the
// follower to verify. The caller (rpc.Replicator.attachResume) holds the
// stream lock, so the fingerprint describes the exact record boundary the
// follower resumes at.
func (m *LocalMiner) catchupFingerprint() (uint64, int) {
	fc := m.sm.TrackedFileCount()
	return core.StateFingerprint(m.sm, fc), fc
}

// checkResume verifies a resume (rpc.Replicator.attachResume): this
// follower stands exactly at the primary's position and its state
// fingerprints as the primary's does. Any mismatch refuses the resume; the
// primary falls back to a full cut.
func (m *LocalMiner) checkResume(d rpc.CatchupDelta) error {
	if fed := m.sm.Fed(); fed != d.FromPos {
		return fmt.Errorf("farmer: resume at position %d but this follower is at %d", d.FromPos, fed)
	}
	if fp := core.StateFingerprint(m.sm, d.FileCount); fp != d.Fingerprint {
		return fmt.Errorf("farmer: resume fingerprint mismatch: follower %#x, primary claims %#x (diverged checkpoint)", fp, d.Fingerprint)
	}
	return nil
}

// applyCatchup verifies and installs a primary's checkpoint cut
// (core.ShardedModel.LoadCut): the snapshot is decoded and checked — its
// fingerprint, mining parameters and position — before anything touches the
// miner, so a corrupt, mismatched or incompatible transfer is refused with
// the follower's state untouched. A follower that is NOT fresh — it loaded
// its own checkpoint — has its state replaced wholesale, and its next Save
// is full.
func (m *LocalMiner) applyCatchup(cut rpc.CatchupCut) error {
	if err := m.sm.LoadCut(cut.Snapshot, cut.Pos, cut.Fingerprint, cut.FileCount); err != nil {
		return fmt.Errorf("farmer: installing catch-up checkpoint: %w", err)
	}
	return nil
}
