package farmer

import (
	"bytes"
	"fmt"

	"farmer/internal/core"
	"farmer/internal/kvstore"
	"farmer/internal/rpc"
)

// This file is the miner half of farmerd replication (the serving half
// lives in serve.go, the stream itself in internal/rpc): cutting the
// catch-up checkpoint a follower bootstraps from, and installing one on the
// follower side.

// catchupCut snapshots the miner's complete mined state — lists, vectors,
// correlation graph, lookahead window and ingest position — into one
// rpc.CatchupCut. The caller (rpc.Replicator.Attach) serializes the cut
// against ingestion, so position, snapshot and fingerprint describe the
// same record boundary. The copy leaves the checkpoint binding alone, so the
// miner's next Save is still a delta.
func (m *LocalMiner) catchupCut() (rpc.CatchupCut, error) {
	mem, err := kvstore.Open("")
	if err != nil {
		return rpc.CatchupCut{}, err
	}
	if err := m.sm.SaveCopy(mem); err != nil {
		return rpc.CatchupCut{}, fmt.Errorf("farmer: cutting catch-up checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := mem.Snapshot(&buf); err != nil {
		return rpc.CatchupCut{}, fmt.Errorf("farmer: encoding catch-up snapshot: %w", err)
	}
	fc := m.sm.TrackedFileCount()
	return rpc.CatchupCut{
		Pos:         m.sm.Fed(),
		Fingerprint: core.StateFingerprint(m.sm, fc),
		FileCount:   fc,
		Snapshot:    buf.Bytes(),
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

// applyCatchup verifies and installs a primary's checkpoint cut. The
// snapshot's fingerprint is computed from the decoded store BEFORE anything
// touches the miner, so a corrupt or mismatched transfer is refused with
// the follower's state untouched; LoadMerged then enforces that the
// follower is fresh and that the mining parameters match the primary's.
// A follower that is NOT fresh — it loaded its own checkpoint, or a
// refused delta replay advanced it — is reset first (after the parameters
// are pre-checked, so an incompatible cut still leaves it untouched): the
// full cut replaces its state wholesale.
func (m *LocalMiner) applyCatchup(cut rpc.CatchupCut) error {
	mem, err := kvstore.Open("")
	if err != nil {
		return err
	}
	if err := mem.LoadSnapshot(bytes.NewReader(cut.Snapshot)); err != nil {
		return fmt.Errorf("farmer: decoding catch-up snapshot: %w", err)
	}
	fp, err := core.StoreFingerprint(mem, cut.FileCount)
	if err != nil {
		return fmt.Errorf("farmer: fingerprinting catch-up snapshot: %w", err)
	}
	if fp != cut.Fingerprint {
		return fmt.Errorf("farmer: catch-up checkpoint fingerprint mismatch: snapshot %#x, primary claims %#x (corrupt transfer or diverged state)",
			fp, cut.Fingerprint)
	}
	if m.sm.Fed() > 0 {
		weight, strength, _, err := core.ReadSavedConfig(mem)
		if err != nil {
			return fmt.Errorf("farmer: reading catch-up checkpoint parameters: %w", err)
		}
		if mw, ms := m.sm.Params(); weight != mw || strength != ms {
			return fmt.Errorf("farmer: catch-up checkpoint parameters (p=%v, max_strength=%v) differ from this miner's (p=%v, max_strength=%v)",
				weight, strength, mw, ms)
		}
		m.sm.Reset()
	}
	if err := m.sm.LoadMerged(mem); err != nil {
		return fmt.Errorf("farmer: installing catch-up checkpoint: %w", err)
	}
	if fed := m.sm.Fed(); fed != cut.Pos {
		return fmt.Errorf("farmer: catch-up checkpoint at position %d but installed %d records", cut.Pos, fed)
	}
	return nil
}
