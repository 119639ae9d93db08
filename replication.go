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
// tracked-file bound it covers — what a delta catch-up's final frame carries
// for the follower to verify after replaying. The caller
// (rpc.Replicator.attachDelta) holds the stream lock, so the fingerprint
// describes the exact record boundary the delta ends at.
func (m *LocalMiner) catchupFingerprint() (uint64, int) {
	fc := m.sm.TrackedFileCount()
	return core.StateFingerprint(m.sm, fc), fc
}

// applyCatchupDelta replays one chunk of a delta catch-up: the records this
// follower's checkpoint missed, fed through the normal mining path —
// deterministic mining makes the replayed state identical to the primary's,
// which the final chunk's fingerprint proves. A position mismatch (this
// chunk does not start exactly where the follower stopped) refuses the
// delta; the primary falls back to a full cut.
func (m *LocalMiner) applyCatchupDelta(d rpc.CatchupDelta) error {
	if fed := m.sm.Fed(); fed != d.FromPos {
		return fmt.Errorf("farmer: delta catch-up resumes at position %d but this follower is at %d (no resumable match)", d.FromPos, fed)
	}
	if len(d.Records) > 0 {
		m.sm.FeedBatch(d.Records)
	}
	if d.Final {
		if fp := core.StateFingerprint(m.sm, d.FileCount); fp != d.Fingerprint {
			return fmt.Errorf("farmer: delta catch-up fingerprint mismatch after replay: follower %#x, primary claims %#x (diverged checkpoint)", fp, d.Fingerprint)
		}
	}
	return nil
}

// applyCatchup verifies and installs a primary's checkpoint cut
// (core.ShardedModel.LoadCut): the snapshot is decoded and checked — its
// fingerprint, mining parameters and position — before anything touches the
// miner, so a corrupt, mismatched or incompatible transfer is refused with
// the follower's state untouched. A follower that is NOT fresh — it loaded
// its own checkpoint, or a refused delta replay advanced it — has its state
// replaced wholesale, and its next Save is full.
func (m *LocalMiner) applyCatchup(cut rpc.CatchupCut) error {
	if err := m.sm.LoadCut(cut.Snapshot, cut.Pos, cut.Fingerprint, cut.FileCount); err != nil {
		return fmt.Errorf("farmer: installing catch-up checkpoint: %w", err)
	}
	return nil
}
