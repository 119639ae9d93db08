package farmer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime/metrics"
	"strings"
	"testing"

	"farmer/internal/core"
	"farmer/internal/kvstore"
	"farmer/internal/rpc"
	"farmer/internal/trace"
)

// editFrame returns a copy of a cut's snapshot in which the first frame whose
// key starts with prefix, and whose value match accepts, has been handed to
// edit — the whole frame (its op byte is frame[4]) and the value inside it —
// and sealed again under a fresh CRC, so only the decoder can object.
func editFrame(t *testing.T, snap []byte, prefix string, match func(value []byte) bool, edit func(frame, value []byte)) []byte {
	t.Helper()
	out := bytes.Clone(snap)
	for off := 0; off < len(out); {
		klen := int(binary.LittleEndian.Uint32(out[off+5:]))
		vlen := int(binary.LittleEndian.Uint32(out[off+9:]))
		end := off + 13 + klen + vlen
		if key, val := out[off+13:off+13+klen], out[off+13+klen:end]; bytes.HasPrefix(key, []byte(prefix)) && match(val) {
			edit(out[off:end], val)
			binary.LittleEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[off+4:end]))
			return out
		}
		off = end
	}
	t.Fatalf("no %s frame to tamper with", prefix)
	return nil
}

// twoEdges matches a graph node with at least two edges.
func twoEdges(v []byte) bool { return binary.LittleEndian.Uint32(v[8:12]) >= 2 }

// repeatEdge points a graph node's second edge at its first edge's successor.
func repeatEdge(_, v []byte) { copy(v[24:28], v[12:16]) }

// hostileHeader is a lone 13-byte put frame header claiming the frame
// reader's largest key and value.
func hostileHeader() []byte {
	h := make([]byte, 13)
	h[4] = 1 // a put
	binary.LittleEndian.PutUint32(h[5:9], 1<<24)
	binary.LittleEndian.PutUint32(h[9:13], 1<<28)
	return h
}

// anyValue matches every value.
func anyValue([]byte) bool { return true }

// minedCut returns a primary's honest cut over records and the configuration
// it was mined with.
func minedCut(t *testing.T, records int) (rpc.CatchupCut, Config, *Trace) {
	t.Helper()
	tr, err := Generate(HP(records))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFor(tr)
	primary, err := Open(cfg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	cut, err := primary.catchupCut()
	if err != nil {
		t.Fatal(err)
	}
	return cut, cfg, tr
}

// TestCatchupRejectsRepeatedEdge: a catch-up snapshot whose graph node names
// one successor twice passes the fingerprint check (the fingerprint covers
// Correlator Lists, not the graph) and must then be refused by the decoder —
// installed, the repeated edge would be credited apart from its twin and the
// follower's Frequency would drift from the primary's with no check left to
// notice. An honest cut on the same follower then installs.
func TestCatchupRejectsRepeatedEdge(t *testing.T) {
	honest, cfg, _ := minedCut(t, 3000)
	hostile := honest
	hostile.Snapshot = editFrame(t, honest.Snapshot, "g/", twoEdges, repeatEdge)

	follower, err := Open(cfg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.applyCatchup(hostile); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("applyCatchup of a node with a repeated edge: %v, want the decode refusal", err)
	}
	if fed := follower.sm.Fed(); fed != 0 {
		t.Fatalf("refused catch-up left state behind: fed=%d", fed)
	}
	if err := follower.applyCatchup(honest); err != nil {
		t.Fatalf("honest catch-up refused after the hostile one: %v", err)
	}
	if got, _ := follower.catchupFingerprint(); got != honest.Fingerprint {
		t.Fatalf("installed fingerprint %#x, primary's %#x", got, honest.Fingerprint)
	}
}

// TestCatchupRefusalsLeaveMinedFollowerUntouched: a follower that has mined
// on its own refuses every cut it must not install — its Fed and
// StateFingerprint are what they were after each refusal — and then takes
// the honest cut. A cut mined with another p or max_strength is refused
// though its lists hash true: installed, the follower would go on mining the
// primary's state under its own parameters.
func TestCatchupRefusalsLeaveMinedFollowerUntouched(t *testing.T) {
	honest, cfg, tr := minedCut(t, 3000)
	follower, err := Open(cfg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.FeedBatch(context.Background(), tr.Records[:1000]); err != nil {
		t.Fatal(err)
	}
	fed, fp := follower.sm.Fed(), core.StateFingerprint(follower.sm, honest.FileCount)

	setF64 := func(at int, x float64) func(_, v []byte) {
		return func(_, v []byte) { binary.LittleEndian.PutUint64(v[at:], math.Float64bits(x)) }
	}
	for _, tc := range []struct {
		name string
		cut  func(rpc.CatchupCut) rpc.CatchupCut
		want string
	}{
		{"fingerprint mismatch", func(c rpc.CatchupCut) rpc.CatchupCut { c.Fingerprint ^= 1; return c }, "fingerprint mismatch"},
		{"corrupt framing", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = bytes.Clone(c.Snapshot)
			c.Snapshot[len(c.Snapshot)/2] ^= 0x40
			return c
		}, "corrupt"},
		{"hostile length", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = append(bytes.Clone(c.Snapshot), hostileHeader()...)
			return c
		}, "corrupt"},
		{"repeated edge", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = editFrame(t, c.Snapshot, "g/", twoEdges, repeatEdge)
			return c
		}, "ascending"},
		{"other p", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = editFrame(t, c.Snapshot, "m/config", anyValue, setF64(0, cfg.Weight/2))
			return c
		}, "parameters"},
		{"other max_strength", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = editFrame(t, c.Snapshot, "m/config", anyValue, setF64(8, cfg.MaxStrength/2))
			return c
		}, "parameters"},
		{"non-put frame", func(c rpc.CatchupCut) rpc.CatchupCut {
			c.Snapshot = editFrame(t, c.Snapshot, "c/", anyValue, func(frame, _ []byte) { frame[4] = 2 }) // a delete
			return c
		}, "corrupt"},
		{"position mismatch", func(c rpc.CatchupCut) rpc.CatchupCut { c.Pos++; return c }, "position"},
	} {
		err := follower.applyCatchup(tc.cut(honest))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: applyCatchup: %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		if got, gotFP := follower.sm.Fed(), core.StateFingerprint(follower.sm, honest.FileCount); got != fed || gotFP != fp {
			t.Fatalf("%s: the refused cut moved the follower: fed %d → %d, fingerprint %#x → %#x", tc.name, fed, got, fp, gotFP)
		}
	}
	if err := follower.applyCatchup(honest); err != nil {
		t.Fatalf("honest catch-up refused after the hostile ones: %v", err)
	}
	if got, _ := follower.catchupFingerprint(); got != honest.Fingerprint || follower.sm.Fed() != honest.Pos {
		t.Fatalf("installed fed %d, fingerprint %#x; primary's %d, %#x", follower.sm.Fed(), got, honest.Pos, honest.Fingerprint)
	}
}

// TestCatchupSnapshotLengthNotBelieved: a MsgCatchup snapshot reaches the
// kvstore frame reader straight off the network, and a frame header is 13
// bytes. One claiming the reader's largest key and value made a follower
// allocate 272 MiB before reading a payload byte; it is refused as corrupt
// for next to nothing, the follower untouched.
func TestCatchupSnapshotLengthNotBelieved(t *testing.T) {
	follower, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	hostile := hostileHeader()

	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	err = follower.applyCatchup(rpc.CatchupCut{Pos: 1, Snapshot: hostile})
	metrics.Read(s)
	if !errors.Is(err, kvstore.ErrCorruptWAL) {
		t.Fatalf("applyCatchup of a bare hostile header: %v, want ErrCorruptWAL", err)
	}
	if grew := s[0].Value.Uint64() - before; grew > 1<<20 {
		t.Fatalf("refusing a 13-byte snapshot allocated %d bytes", grew)
	}
	if fed := follower.sm.Fed(); fed != 0 {
		t.Fatalf("refused catch-up left state behind: fed=%d", fed)
	}
}

// TestResumeRefusesAnythingButAnEmptyFinalFrame: a primary resumes a
// follower with one final MsgCatchupDelta and no records. A frame carrying
// records, or one not final, is refused before the follower mines anything
// or pins its sender, and the honest resume is accepted after them from
// another connection.
func TestResumeRefusesAnythingButAnEmptyFinalFrame(t *testing.T) {
	m, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rt := newLeaseRuntime("self:1", 0, true, nil)
	rt.logf = func(string, ...any) {}
	b := newServeBackend(m, rt, 0, rpc.DialOptions{})
	fp, fc := m.catchupFingerprint()
	honest := rpc.CatchupDelta{Fingerprint: fp, FileCount: fc, Final: true}
	withRecords, notFinal := honest, honest
	withRecords.Records = []trace.Record{{File: 1}}
	notFinal.Final = false
	for name, d := range map[string]rpc.CatchupDelta{"records": withRecords, "not final": notFinal} {
		if err := b.CatchupDelta(1, d); err == nil {
			t.Errorf("%s: resume frame accepted", name)
		}
		if fed := m.sm.Fed(); fed != 0 {
			t.Fatalf("%s: the refused frame was mined: fed=%d", name, fed)
		}
	}
	if err := b.CatchupDelta(2, honest); err != nil {
		t.Fatalf("honest resume refused after the others: %v", err)
	}
}
