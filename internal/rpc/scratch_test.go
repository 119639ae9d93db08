package rpc

import (
	"context"
	"errors"
	"testing"

	"farmer/internal/bin"
	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// A connection decodes its feed frames' records into one scratch it keeps
// across frames (feedRow). These tests hold what that rests on: the scratch
// is reused and bounded, a handled frame allocates one string per record and
// nothing else that grows with the batch, and nobody downstream — the miner's
// shards, the Replicator's catch-up tail — still reads the slice when the
// next frame overwrites it.

// consumeRecords decodes a whole batch body: what the golden and fuzz tests
// hold readRecords by.
func consumeRecords(b []byte) ([]trace.Record, error) {
	c := bin.Read("rpc: records", b)
	recs := readRecords(&c, nil)
	return recs, c.Done()
}

// feedFrames encodes a trace as MsgFeedBatch bodies of batch records each.
func feedFrames(recs []trace.Record, batch int) [][]byte {
	var bodies [][]byte
	for ; len(recs) >= batch; recs = recs[batch:] {
		bodies = append(bodies, appendRecords(nil, recs[:batch]))
	}
	return bodies
}

func TestFeedFrameAllocsPerRecord(t *testing.T) {
	const batch = 1024
	tr := tracegen.HP(8 * batch).MustGenerate()
	bodies := feedFrames(tr.Records, batch)
	s, cs := NewServer(newMinerBackend(2)), &connState{id: 1, authed: true}
	var out []byte
	feed := func(i int) {
		out = s.handle(out[:0], cs, &Frame{Type: MsgFeedBatch, ID: 9, Body: bodies[i%len(bodies)]})
		if typ := MsgType(out[5]); typ != MsgOK { // u32 length, version, type
			t.Fatalf("frame %d answered %v", i, typ)
		}
	}
	for i := range bodies { // warm: every file tracked, the scratch grown
		feed(i)
	}
	scratch := &cs.recs[0]
	i := 0
	perFrame := testing.AllocsPerRun(2*len(bodies), func() { feed(i); i++ })
	t.Logf("%.0f allocs per %d-record frame", perFrame, batch)
	if perFrame > batch+64 {
		t.Errorf("a warmed %d-record frame allocates %.0f times, want one Path per record + O(1)", batch, perFrame)
	}
	if &cs.recs[0] != scratch || cap(cs.recs) != batch {
		t.Errorf("the connection's scratch moved or grew: cap %d, want the %d it was warmed to", cap(cs.recs), batch)
	}

	// The sync frame decodes into the same scratch: no Record per frame.
	one := trace.AppendRecord(nil, &tr.Records[0])
	perFeed := testing.AllocsPerRun(100, func() {
		out = s.handle(out[:0], cs, &Frame{Type: MsgFeed, ID: 9, Body: one})
	})
	if &cs.recs[0] != scratch || perFeed > 2 { // the Path, and nothing for the record
		t.Errorf("a MsgFeed frame allocates %.0f times (scratch kept: %v), want the Path alone", perFeed, &cs.recs[0] == scratch)
	}
}

// TestRecordScratchIsBounded: a batch larger than a connection may keep — an
// 8 MiB frame of path-less records here — is decoded and mined like any
// other, in a slice of its own that dies with the frame.
func TestRecordScratchIsBounded(t *testing.T) {
	b := newMinerBackend(1)
	s, cs := NewServer(b), &connState{id: 1, authed: true}
	small := make([]trace.Record, maxKeptRecords)
	huge := make([]trace.Record, (8<<20)/trace.RecordFixedLen)
	for i := range huge {
		huge[i].File = trace.FileID(i % 512)
	}
	for _, recs := range [][]trace.Record{small[:3], huge, small, huge[:maxKeptRecords+1]} {
		if code := answer(t, s, cs, MsgFeedBatch, appendRecords(nil, recs)); code != 0 {
			t.Fatalf("a %d-record frame answered code %d", len(recs), code)
		}
		if cap(cs.recs) > maxKeptRecords {
			t.Fatalf("after a %d-record frame the connection keeps a scratch of %d records, bound %d", len(recs), cap(cs.recs), maxKeptRecords)
		}
	}
	if want := uint64(3 + len(huge) + len(small) + maxKeptRecords + 1); b.sm.Fed() != want {
		t.Fatalf("mined %d records, want %d", b.sm.Fed(), want)
	}
	if cap(cs.recs) != maxKeptRecords {
		t.Errorf("scratch holds %d records, want the %d of the largest batch under the bound", cap(cs.recs), maxKeptRecords)
	}
}

// replicatingBackend mines through a Replicator, as farmerd's backend does.
type replicatingBackend struct {
	*minerBackend
	repl *Replicator
}

func (b *replicatingBackend) FeedBatch(recs []trace.Record) error {
	return b.repl.Ingest(context.Background(), recs, func() error { return b.minerBackend.FeedBatch(recs) })
}

// replayingFollower takes a delta catch-up the way farmer's follower does:
// replay, then match the primary's fingerprint.
type replayingFollower struct {
	*replicaRecorder
}

func (f *replayingFollower) CatchupDelta(conn uint64, d CatchupDelta) error {
	f.sm.FeedBatch(d.Records)
	if d.Final && core.StateFingerprint(f.sm, d.FileCount) != d.Fingerprint {
		return errors.New("replayed state does not match the primary's fingerprint")
	}
	return nil
}

// TestCatchupTailSurvivesScratchReuse is the retention half: frames decoded
// into one reused scratch go through Replicator.Ingest, and a follower that
// was a frame in when it restarted catches up from the tail by replay. A
// tail (or a shard) still pointing into the scratch would replay the last
// frame five times over and miss the fingerprint.
func TestCatchupTailSurvivesScratchReuse(t *testing.T) {
	const batch = 1024
	tr := tracegen.HP(6 * batch).MustGenerate()
	primary := &replicatingBackend{newMinerBackend(2), NewReplicator(0, 0, nil)}
	defer primary.repl.Close()
	primary.repl.EnableDeltaCatchup(len(tr.Records), func() (uint64, int) {
		return core.StateFingerprint(primary.sm, tr.FileCount), tr.FileCount
	})
	s, cs := NewServer(primary), &connState{id: 1, authed: true}
	for i, body := range feedFrames(tr.Records, batch) {
		if code := answer(t, s, cs, MsgFeedBatch, body); code != 0 {
			t.Fatalf("frame %d answered code %d", i, code)
		}
	}
	if cap(cs.recs) != batch {
		t.Fatalf("six frames left a scratch of %d records: not reused", cap(cs.recs))
	}

	follower := &replayingFollower{&replicaRecorder{minerBackend: newMinerBackend(2)}}
	follower.sm.FeedBatch(tr.Records[:batch])
	addr, _, stop := startServer(t, follower)
	defer stop()
	err := primary.repl.Attach(context.Background(), addr, func() (CatchupCut, error) {
		return CatchupCut{}, errors.New("the delta was refused: a full cut was asked for")
	})
	if err != nil {
		t.Fatal(err)
	}
	single := core.New(core.DefaultConfig())
	single.FeedTrace(tr)
	want := core.StateFingerprint(single, tr.FileCount)
	if got := core.StateFingerprint(follower.sm, tr.FileCount); got != want || follower.sm.Fed() != uint64(len(tr.Records)) {
		t.Fatalf("follower at %d records with fingerprint %x, want %d and the sequential miner's %x", follower.sm.Fed(), got, len(tr.Records), want)
	}
	if got := core.StateFingerprint(primary.sm, tr.FileCount); got != want {
		t.Fatalf("primary fingerprint %x, want the sequential miner's %x", got, want)
	}
}
