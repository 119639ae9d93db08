package farmer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime/metrics"
	"strings"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/rpc"
)

// TestCatchupRejectsRepeatedEdge: a catch-up snapshot whose graph node names
// one successor twice passes the fingerprint check (the fingerprint covers
// Correlator Lists, not the graph) and must then be refused by the decoder —
// installed, the repeated edge would be credited apart from its twin and the
// follower's Frequency would drift from the primary's with no check left to
// notice. An honest cut on the same follower then installs.
func TestCatchupRejectsRepeatedEdge(t *testing.T) {
	tr, err := Generate(HP(3000))
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
	honest, err := primary.catchupCut()
	if err != nil {
		t.Fatal(err)
	}

	// Decode the snapshot, point one node's second edge at its first edge's
	// successor, and re-encode it under the honest fingerprint.
	mem, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.LoadSnapshot(bytes.NewReader(honest.Snapshot)); err != nil {
		t.Fatal(err)
	}
	var key, val []byte
	mem.Scan([]byte("g/"), []byte("g0"), func(k, v []byte) bool {
		if binary.LittleEndian.Uint32(v[8:12]) < 2 {
			return true
		}
		key, val = append(key, k...), append(val, v...)
		return false
	})
	if key == nil {
		t.Fatal("no graph node with two edges to tamper with")
	}
	copy(val[24:28], val[12:16])
	if err := mem.Put(key, val); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mem.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	hostile := honest
	hostile.Snapshot = snap.Bytes()

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
	hostile := make([]byte, 13)
	hostile[4] = 1 // a put
	binary.LittleEndian.PutUint32(hostile[5:9], 1<<24)
	binary.LittleEndian.PutUint32(hostile[9:13], 1<<28)

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
