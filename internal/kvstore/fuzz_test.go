package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"
)

// hostileHeader is the 13 bytes that used to cost 272 MiB: a frame header
// whose length words sit exactly on the reader's bounds (2^24-byte key,
// 2^28-byte value) and nothing after it.
func hostileHeader() []byte {
	b := make([]byte, 13)
	b[4] = byte(walPut)
	binary.LittleEndian.PutUint32(b[5:9], 1<<24)
	binary.LittleEndian.PutUint32(b[9:13], 1<<28)
	return b
}

// frame encodes one WAL frame on its own, apart from appendFrame.
func frame(op walOp, key, value string) []byte {
	p := []byte{byte(op), 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(p[5:9], uint32(len(value)))
	p = append(append(p, key...), value...)
	return append(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(p)), p...)
}

// allocatedBy reports the heap bytes allocated while f ran. The counter is
// process-wide, so a reading over limit is taken again: another goroutine's
// burst does not repeat, a reader that believes a hostile length does.
func allocatedBy(limit uint64, f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var grew uint64
	for try := 0; try < 2; try++ {
		metrics.Read(s)
		before := s[0].Value.Uint64()
		f()
		metrics.Read(s)
		if grew = s[0].Value.Uint64() - before; grew <= limit {
			break
		}
	}
	return grew
}

func writeWAL(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// contents lists a store's keys and values in order.
func contents(s *Store) (kv [][2]string) {
	s.Scan(nil, nil, func(k, v []byte) bool {
		kv = append(kv, [2]string{string(k), string(v)})
		return true
	})
	return kv
}

// TestHostileLengthCostsNothing: a frame header is believed only as far as
// its bytes arrive. The 13-byte snapshot a follower may be sent over
// MsgCatchup, and the same bytes as a WAL on disk, are refused as corrupt
// for well under a megabyte (each was a 272 MiB allocation).
func TestHostileLengthCostsNothing(t *testing.T) {
	const limit = 1 << 20
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	grew := allocatedBy(limit, func() { err = mem.LoadSnapshot(bytes.NewReader(hostileHeader())) })
	if !errors.Is(err, ErrCorruptWAL) || grew > limit {
		t.Errorf("LoadSnapshot: %v after allocating %d bytes; want ErrCorruptWAL within %d", err, grew, limit)
	}
	path := writeWAL(t, hostileHeader())
	grew = allocatedBy(limit, func() { _, err = Open(path) })
	if !errors.Is(err, ErrCorruptWAL) || grew > limit {
		t.Errorf("Open: %v after allocating %d bytes; want ErrCorruptWAL within %d", err, grew, limit)
	}
	// A length that is honest is still read whole, through every doubling.
	big := frame(walPut, "k", string(bytes.Repeat([]byte{'v'}, 300<<10)))
	if err := mem.LoadSnapshot(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	if v, ok := mem.Get([]byte("k")); !ok || len(v) != 300<<10 {
		t.Errorf("a 300 KiB value loaded as %d bytes, found=%v", len(v), ok)
	}
}

// FuzzWAL feeds arbitrary bytes to the three readers of the frame format —
// Open and Repair (the disk) and LoadSnapshot (the disk, and a catch-up
// snapshot off the network). None may panic or allocate out of proportion
// to the input; a log Repair has cut must open, and stay as Repair left it;
// and whatever loads must survive a Snapshot round trip unchanged.
func FuzzWAL(f *testing.F) {
	if ckpt, err := os.ReadFile("../core/testdata/parent_store.wal"); err == nil {
		f.Add(ckpt) // a real checkpoint, written by core.SaveMerged
	}
	put, begin, commit := frame(walPut, "c/1", "list"), frame(walBegin, "", ""), frame(walCommit, "", "")
	f.Add(bytes.Join([][]byte{put, begin, put, frame(walDelete, "c/1", "")[:11]}, nil)) // a torn batch
	f.Add(bytes.Join([][]byte{put, begin, put, begin, put, commit}, nil))               // a nested begin
	f.Add(bytes.Join([][]byte{put, commit, put}, nil))                                  // a stray commit
	f.Add(hostileHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		// A loaded record is held once (the reader's payload, which the index
		// or a pending batch keeps), plus its share of the index.
		limit := 64*uint64(len(data)) + 1<<20
		var err error

		mem, _ := Open("")
		if grew := allocatedBy(limit, func() { err = mem.LoadSnapshot(bytes.NewReader(data)) }); grew > limit {
			t.Fatalf("LoadSnapshot allocated %d bytes reading %d", grew, len(data))
		}
		if err == nil {
			sameAfterSnapshot(t, mem)
		}

		path := writeWAL(t, data)
		var s *Store
		if grew := allocatedBy(limit, func() { s, err = Open(path) }); grew > limit {
			t.Fatalf("Open allocated %d bytes reading %d", grew, len(data))
		}
		if err == nil {
			sameAfterSnapshot(t, s)
			s.Close()
		} else if !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("Open refused the log with %v, want ErrCorruptWAL", err)
		}

		path = writeWAL(t, data) // Open may have cut a torn batch off the first copy
		if grew := allocatedBy(limit, func() { _, _, err = Repair(path) }); err != nil || grew > limit {
			t.Fatalf("Repair: %v, allocated %d bytes reading %d", err, grew, len(data))
		}
		if s, err = Open(path); err != nil {
			t.Fatalf("Open after Repair: %v", err)
		}
		s.Close()
		if _, dropped, err := Repair(path); err != nil || dropped != 0 {
			t.Fatalf("a second Repair dropped %d more bytes (%v)", dropped, err)
		}
	})
}

// sameAfterSnapshot checks that s snapshots to a log that loads to exactly
// s's keys and values.
func sameAfterSnapshot(t *testing.T, s *Store) {
	t.Helper()
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	again, _ := Open("")
	if err := again.LoadSnapshot(&snap); err != nil {
		t.Fatalf("a snapshot of an accepted log does not load: %v", err)
	}
	want, got := contents(s), contents(again)
	if len(want) != len(got) {
		t.Fatalf("snapshot round trip: %d keys became %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("snapshot round trip: entry %d %q became %q", i, want[i], got[i])
		}
	}
}
