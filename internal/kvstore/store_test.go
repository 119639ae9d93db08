package kvstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// TestIndexMatchesMapProperty: the store agrees with a sorted reference under
// seeded puts, overwrites, deletes and batches, and every Scan(from, to),
// stopped early or not, visits the reference's keys in order. Values change
// length both ways (an overwrite in place must leave no stale tail), a batch's
// caller scribbles over its buffers once the batch returns, and deleted keys'
// slots are handed to new ones. The store reopens to the same state from its
// log as written, and again once compacted (a log in key order).
func TestIndexMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		path := filepath.Join(t.TempDir(), "meta.wal")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[string]string{}
		value := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), rng.IntN(40)) }
		key := func() string { return fmt.Sprintf("k%02d", rng.IntN(60)) }
		var buf []byte
		for i := 0; i < 400; i++ {
			switch k := key(); rng.IntN(5) {
			case 0, 1:
				v := value(i)
				s.Put([]byte(k), []byte(v))
				ref[k] = v
			case 2:
				s.Delete([]byte(k))
				delete(ref, k)
			case 3:
				err := s.Batch(func(b *Batch) error {
					for j := rng.IntN(6); j >= 0; j-- {
						k, v := key(), value(i+j)
						buf = append(append(buf[:0], k...), v...)
						if rng.IntN(4) == 0 {
							b.Delete(buf[:len(k)])
							delete(ref, k)
						} else {
							b.Put(buf[:len(k)], buf[len(k):])
							ref[k] = v
						}
					}
					return nil
				})
				for j := range buf {
					buf[j] = '!'
				}
				if err != nil {
					t.Fatal(err)
				}
			case 4:
				if !scanMatches(s, ref, key(), key(), rng.IntN(8)) {
					return false
				}
			}
		}
		for _, compact := range []bool{false, true} {
			if s.Len() != len(ref) || len(s.idx.vals)-len(s.idx.free) != len(ref) {
				return false
			}
			for k, v := range ref {
				if got, ok := s.Get([]byte(k)); !ok || string(got) != v {
					return false
				}
			}
			if !scanMatches(s, ref, "", "", 0) {
				return false
			}
			if compact && s.Compact() != nil {
				return false
			}
			if s.Close() != nil {
				return false
			}
			if s, err = Open(path); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()
		return scanMatches(s, ref, "", "", 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	s, _ := Open("")
	s.Put([]byte("a"), []byte("longer"))
	s.Put([]byte("a"), []byte("sh"))
	if v, _ := s.Get([]byte("a")); string(v) != "sh" {
		t.Fatalf("a shorter value over a longer one reads %q", v)
	}
	s.Put([]byte("a"), []byte("longest of all"))
	if v, _ := s.Get([]byte("a")); string(v) != "longest of all" {
		t.Fatalf("a longer value over a shorter one reads %q", v)
	}
	s.Delete([]byte("a"))
	s.Put([]byte("b"), []byte("1"))
	if len(s.idx.vals) != 1 || len(s.idx.free) != 0 {
		t.Fatalf("a new key took slot %d of %d, want the freed one", s.idx.slots["b"], len(s.idx.vals))
	}
	if got := contents(s); len(got) != 1 || got[0] != [2]string{"b", "1"} {
		t.Fatalf("store holds %q, want b=1 alone", got)
	}
}

// scanMatches reports whether s.Scan over [from, to) ("" is an open bound)
// visits ref's keys and values in order, stopping after stop of them when
// stop > 0.
func scanMatches(s *Store, ref map[string]string, from, to string, stop int) bool {
	var want [][2]string
	for k, v := range ref {
		if (from == "" || k >= from) && (to == "" || k < to) {
			want = append(want, [2]string{k, v})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	if stop > 0 && stop < len(want) {
		want = want[:stop]
	}
	bound := func(b string) []byte {
		if b == "" {
			return nil
		}
		return []byte(b)
	}
	var got [][2]string
	s.Scan(bound(from), bound(to), func(k, v []byte) bool {
		got = append(got, [2]string{string(k), string(v)})
		return stop <= 0 || len(got) < stop
	})
	return slices.Equal(got, want)
}

// TestIndexConcurrentScansAndBatch: scans and gets run while batches add and
// remove keys, so every scan may find the key order stale and rebuild it; run
// under -race.
func TestIndexConcurrentScansAndBatch(t *testing.T) {
	s, _ := Open("")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				prev := ""
				s.Scan(nil, nil, func(k, v []byte) bool {
					if string(k) <= prev {
						t.Errorf("scan visited %q after %q", k, prev)
						return false
					}
					prev = string(k)
					return true
				})
				s.Get([]byte(fmt.Sprintf("k%03d", i)))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		err := s.Batch(func(b *Batch) error {
			b.Put([]byte(fmt.Sprintf("k%03d", (i*37)%200)), []byte("v"))
			return b.Delete([]byte(fmt.Sprintf("k%03d", (i*91)%200)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestClosedStoreRefusesWrites: a closed file-backed store has no log to
// write, so Put, Delete and Batch refuse instead of succeeding in memory
// only.
func TestClosedStoreRefusesWrites(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("a"), []byte("1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), []byte("2")); err == nil {
		t.Error("Put on a closed store succeeded")
	}
	if err := s.Delete([]byte("a")); err == nil {
		t.Error("Delete on a closed store succeeded")
	}
	if err := s.Batch(func(b *Batch) error { return b.Put([]byte("c"), []byte("3")) }); err == nil {
		t.Error("Batch on a closed store succeeded")
	}
	if got := contents(s); len(got) != 1 || got[0] != [2]string{"a", "1"} {
		t.Errorf("closed store holds %q, want a=1 alone", got)
	}
}

func TestStoreInMemory(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("get = %q ok=%v", v, ok)
	}
	if err := s.Put([]byte(""), nil); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("deleted key visible")
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	s.Put([]byte("k"), []byte("abc"))
	v, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _ := s.Get([]byte("k"))
	if string(v2) != "abc" {
		t.Fatal("Get aliases internal storage")
	}
}

func TestStoreWALRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete([]byte("k10"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 49 {
		t.Fatalf("recovered %d keys, want 49", s2.Len())
	}
	if _, ok := s2.Get([]byte("k10")); ok {
		t.Fatal("deleted key resurrected")
	}
	v, ok := s2.Get([]byte("k42"))
	if !ok || string(v) != "v42" {
		t.Fatalf("recovered k42 = %q ok=%v", v, ok)
	}
}

func TestStoreRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, _ := Open(path)
	s.Put([]byte("good"), []byte("1"))
	s.Close()
	// Append garbage simulating a torn write.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	if _, err := Open(path); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("torn tail must refuse to open, got err=%v", err)
	}
	// Repair cuts the torn suffix; the store then opens with the intact
	// prefix.
	kept, dropped, err := Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 3 {
		t.Fatalf("repair kept %d records, dropped %d bytes; want 1, 3", kept, dropped)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("good")); !ok {
		t.Fatal("intact record lost")
	}
}

func TestStoreRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, _ := Open(path)
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	s.Close()
	// Flip a byte in the last record's payload.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	if _, err := Open(path); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("bit flip must refuse to open, got err=%v", err)
	}
	if kept, _, err := Repair(path); err != nil || kept != 1 {
		t.Fatalf("repair kept %d (err %v), want the 1 intact record", kept, err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("a")); !ok {
		t.Fatal("first record lost")
	}
	if _, ok := s2.Get([]byte("b")); ok {
		t.Fatal("corrupt record applied")
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds: %v", err)
	}
	return len(ents)
}

// TestStoreOpenCorruptNoFDLeak: a refused Open must not leave the WAL file
// descriptor behind, however many times it is retried.
func TestStoreOpenCorruptNoFDLeak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, _ := Open(path)
	s.Put([]byte("a"), []byte("1"))
	s.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	before := openFDs(t)
	for i := 0; i < 64; i++ {
		if _, err := Open(path); err == nil {
			t.Fatal("corrupt store opened")
		}
	}
	if after := openFDs(t); after > before {
		t.Fatalf("fd leak: %d open before, %d after 64 failed opens", before, after)
	}
}

func TestStoreScan(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), nil)
	}
	n := 0
	s.Scan([]byte("k3"), []byte("k7"), func(k, v []byte) bool { n++; return true })
	if n != 4 {
		t.Fatalf("scan visited %d, want 4", n)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id), 5))
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("k%d", rng.IntN(64)))
				switch rng.IntN(3) {
				case 0:
					s.Put(k, []byte("v"))
				case 1:
					s.Get(k)
				case 2:
					s.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRecoveryRandomCorruptionProperty: flip a random byte anywhere in the
// WAL; Open must always detect it (never half-load silently), and after
// Repair the store must open with an intact prefix of the committed puts.
func TestRecoveryRandomCorruptionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		dir := t.TempDir()
		path := filepath.Join(dir, "meta.wal")
		s, err := Open(path)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)}); err != nil {
				return false
			}
		}
		s.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 11))
		pos := rng.IntN(len(data))
		data[pos] ^= byte(1 + rng.IntN(255))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return false
		}
		if _, err := Open(path); !errors.Is(err, ErrCorruptWAL) {
			return false // any single flip must be detected and refused
		}
		if _, _, err := Repair(path); err != nil {
			return false
		}
		s2, err := Open(path)
		if err != nil {
			return false
		}
		defer s2.Close()
		// Repaired state must be a prefix of the committed puts: if k exists
		// its value must be intact.
		for i := 0; i < 20; i++ {
			v, ok := s2.Get([]byte(fmt.Sprintf("k%02d", i)))
			if ok && (len(v) != 1 || v[0] != byte(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactBoundsWALGrowth: repeated full-state rewrites grow the log by
// one copy per round; Compact shrinks it back to ~one copy, preserves every
// live key, stays openable, and keeps accepting durable writes.
func TestCompactBoundsWALGrowth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 128)
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted, _ := os.Stat(path)
	if compacted.Size() >= grown.Size()/5 {
		t.Fatalf("compaction barely helped: %d -> %d bytes", grown.Size(), compacted.Size())
	}
	// Writes after compaction must still be durable.
	if err := s.Put([]byte("post"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 51 {
		t.Fatalf("recovered %d keys after compact, want 51", s2.Len())
	}
	if v, ok := s2.Get([]byte("k07")); !ok || !bytes.Equal(v, val) {
		t.Fatal("live key lost or corrupted by compaction")
	}
	if _, ok := s2.Get([]byte("post")); !ok {
		t.Fatal("post-compaction write lost")
	}
}

// TestCompactInMemoryNoop: Compact on a volatile store is a no-op.
func TestCompactInMemoryNoop(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	s.Put([]byte("a"), []byte("1"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("a")); !ok {
		t.Fatal("key lost")
	}
}

// TestCompactFailureRefusesSilentVolatility: if compaction cannot reattach
// a WAL, the store must refuse later mutations rather than silently
// becoming in-memory (a checkpointing daemon would believe its saves are
// durable).
func TestCompactFailureRefusesSilentVolatility(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put([]byte("a"), []byte("1"))
	// Simulate the terminal failure mode directly: WAL lost, not
	// reattachable.
	s.mu.Lock()
	s.wal.Close()
	s.wal = nil
	s.walErr = errors.New("simulated reattach failure")
	s.mu.Unlock()

	if err := s.Put([]byte("b"), []byte("2")); err == nil {
		t.Fatal("Put succeeded with no durable log")
	}
	if err := s.Delete([]byte("a")); err == nil {
		t.Fatal("Delete succeeded with no durable log")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact reported success with no durable log")
	}
}

// TestWALGoldenBytes pins the log a file-backed store writes, frame by frame:
// a Put, a Delete, a Batch of put, overwrite and delete, and an empty Batch.
// The hex was written by the frame encoder as it stood before batches staged
// frames; a red run means the format moved, not that the hex needs renewing.
func TestWALGoldenBytes(t *testing.T) {
	const want = "" +
		"96941e56" + "01" + "03000000" + "04000000" + "632f31" + "6c697374" + // put c/1=list
		"df735f07" + "02" + "03000000" + "00000000" + "632f31" + // delete c/1
		"6b2884df" + "03" + "00000000" + "00000000" + // begin
		"169bfba1" + "01" + "03000000" + "03000000" + "762f32" + "766563" + // put v/2=vec
		"d36a894d" + "01" + "03000000" + "06000000" + "762f32" + "766563746f72" + // put v/2=vector
		"2fba58ee" + "02" + "03000000" + "00000000" + "672f33" + // delete g/3
		"a245e5bb" + "04" + "00000000" + "00000000" + // commit
		"6b2884df" + "03" + "00000000" + "00000000" + // begin
		"a245e5bb" + "04" + "00000000" + "00000000" // commit
	path := filepath.Join(t.TempDir(), "golden.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("c/1"), []byte("list")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("c/1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(func(b *Batch) error {
		return errors.Join(
			b.Put([]byte("v/2"), []byte("vec")),
			b.Put([]byte("v/2"), []byte("vector")),
			b.Delete([]byte("g/3")))
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := contents(s); len(got) != 1 || got[0] != [2]string{"v/2", "vector"} {
		t.Fatalf("store holds %q, want v/2=vector alone", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("wal bytes\n got %s\nwant %s", got, want)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := contents(s); len(got) != 1 || got[0] != [2]string{"v/2", "vector"} {
		t.Fatalf("reopened store holds %q, want v/2=vector alone", got)
	}
}

// TestWriterRefusesWhatReaderRefuses: the reader takes a key over maxKey or a
// value over maxValue bytes for corruption, so Put, Delete and a Batch's
// staging refuse them instead of writing a log Open would refuse. A key at
// the bound is written and read back.
func TestWriterRefusesWhatReaderRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	longKey := make([]byte, maxKey+1)
	longValue := make([]byte, maxValue+1) // never touched: address space, not memory
	if err := s.Put(longKey, nil); err == nil {
		t.Error("Put took a key over the bound")
	}
	if err := s.Put([]byte("k"), longValue); err == nil {
		t.Error("Put took a value over the bound")
	}
	if err := s.Delete(longKey); err == nil {
		t.Error("Delete took a key over the bound")
	}
	if err := s.Batch(func(b *Batch) error {
		if b.Put(longKey, nil) == nil || b.Put([]byte("k"), longValue) == nil || b.Delete(longKey) == nil {
			t.Error("a Batch staged a record over the bound")
		}
		return b.Put([]byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(longKey[:maxKey], []byte("edge")); err != nil {
		t.Fatalf("Put refused a key at the bound: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("the log the writer left does not open: %v", err)
	}
	defer s.Close()
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Errorf("k = %q, %v; want v", v, ok)
	}
	if v, ok := s.Get(longKey[:maxKey]); !ok || string(v) != "edge" {
		t.Errorf("the key at the bound = %q, %v; want edge", v, ok)
	}
}

// TestCompactSurvivesReopen: after Compact the store must recover from the
// renamed log alone — the path a crash immediately after compaction takes.
// (The parent-directory fsync Compact performs cannot be asserted from user
// space; this pins the on-disk layout the sync makes durable.)
func TestCompactSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte{byte(i)}
		if err := s.Put(k, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// A compacted log holds exactly one record per live key, and no temp
	// file survives.
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("temp compaction file left behind: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("recovered %d keys, want 100", s2.Len())
	}
	if v, ok := s2.Get([]byte{7}); !ok || string(v) != "v2" {
		t.Fatalf("key 7 = %q, %v", v, ok)
	}
}

// storeDump lists every key=value of s in key order.
func storeDump(s *Store) []string {
	var out []string
	s.Scan(nil, nil, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	return out
}

// TestReplaceIsCompactedLog: Replace over a store with other contents leaves
// exactly the staged records, in the log Compact writes for them — one put
// per key in key order, the last staging of a key winning, a staged delete
// removing it — and the store goes on appending durable writes after it.
func TestReplaceIsCompactedLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "replaced.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"old1", "k2", "old3"} {
		if err := s.Put([]byte(k), []byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	pre := s.WriteStats()
	err = s.Replace(func(b *Batch) error {
		for _, kv := range [][2]string{{"k3", "c"}, {"k1", "a"}, {"k2", "x"}, {"gone", "g"}, {"k2", "b"}} {
			if err := b.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
				return err
			}
		}
		return b.Delete([]byte("gone"))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k1=a", "k2=b", "k3=c"}
	if got := storeDump(s); !slices.Equal(got, want) {
		t.Fatalf("after Replace: %q, want %q", got, want)
	}
	if d := s.WriteStats(); d.Puts-pre.Puts != 5 || d.Deletes-pre.Deletes != 1 {
		t.Fatalf("Replace counted %d puts and %d deletes, staged 5 and 1", d.Puts-pre.Puts, d.Deletes-pre.Deletes)
	}

	ref, err := Open(filepath.Join(dir, "compacted.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, kv := range [][2]string{{"k2", "b"}, {"k3", "c"}, {"k1", "a"}} {
		if err := ref.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "replaced.wal"))
	compacted, _ := os.ReadFile(filepath.Join(dir, "compacted.wal"))
	if !bytes.Equal(got, compacted) {
		t.Fatalf("Replace wrote\n %x\nCompact of the same records writes\n %x", got, compacted)
	}

	if err := s.Put([]byte("k4"), []byte("d")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(filepath.Join(dir, "replaced.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := storeDump(s2), append(want, "k4=d"); !slices.Equal(got, want) {
		t.Fatalf("reopened: %q, want %q", got, want)
	}
}

// TestReplaceRefusalLeavesStore: an error from fn, or a store that can no
// longer write, leaves contents and log as they were.
func TestReplaceRefusalLeavesStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	boom := errors.New("boom")
	stage := func(b *Batch) error { return b.Put([]byte("b"), []byte("2")) }
	if err := s.Replace(func(b *Batch) error { stage(b); return boom }); !errors.Is(err, boom) {
		t.Fatalf("Replace returned %v, want fn's error", err)
	}
	s.Close()
	if err := s.Replace(stage); err == nil {
		t.Fatal("a closed store accepted a Replace")
	}
	if got := storeDump(s); !slices.Equal(got, []string{"a=1"}) {
		t.Fatalf("after refused Replaces: %q", got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("a refused Replace changed the log")
	}
}

// TestReplacedValuesGrowInPlace: the index keeps a replaced store's values in
// the staged frames, each with room up to the next value. An overwrite that
// grows into that room must leave every other key's value alone — in memory,
// in a rewrite and after a reopen — and one past it must move.
func TestReplacedValuesGrowInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"k1", "k2", "k3"}
	err = s.Replace(func(b *Batch) error {
		for _, k := range keys {
			if err := b.Put([]byte(k), []byte("v-"+k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A value's room is its own 4 bytes, then the next frame's 13-byte
	// header and 2-byte key: k1 grows to fill it, k2 one byte past it.
	k1, k2 := "v-k1"+strings.Repeat("+", 15), "v-k2"+strings.Repeat("+", 16)
	for _, kv := range [][2]string{{"k1", k1}, {"k2", k2}} {
		if err := s.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"k1=" + k1, "k2=" + k2, "k3=v-k3"}
	if got := storeDump(s); !slices.Equal(got, want) {
		t.Fatalf("after growing overwrites: %q, want %q", got, want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := storeDump(s2); !slices.Equal(got, want) {
		t.Fatalf("reopened: %q, want %q", got, want)
	}
}
