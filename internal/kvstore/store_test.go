package kvstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBTreeBasic(t *testing.T) {
	bt := newBTree(2) // tiny degree to force splits
	for i := 0; i < 100; i++ {
		bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if bt.Len() != 100 {
		t.Fatalf("len = %d", bt.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := bt.Get([]byte(fmt.Sprintf("k%03d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%03d = %q ok=%v", i, v, ok)
		}
	}
	if _, ok := bt.Get([]byte("missing")); ok {
		t.Fatal("phantom key")
	}
}

func TestBTreeOverwrite(t *testing.T) {
	bt := newBTree(2)
	bt.Put([]byte("a"), []byte("1"))
	if bt.Put([]byte("a"), []byte("2")) {
		t.Fatal("overwrite reported as insert")
	}
	if bt.Len() != 1 {
		t.Fatalf("len = %d", bt.Len())
	}
	v, _ := bt.Get([]byte("a"))
	if string(v) != "2" {
		t.Fatalf("value = %q", v)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newBTree(2)
	keys := []string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		bt.Put([]byte(k), []byte("v"))
	}
	rng := rand.New(rand.NewPCG(1, 1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if !bt.Delete([]byte(k)) {
			t.Fatalf("delete %q failed", k)
		}
		if bt.Delete([]byte(k)) {
			t.Fatalf("double delete %q succeeded", k)
		}
		if bt.Len() != len(keys)-i-1 {
			t.Fatalf("len = %d after %d deletes", bt.Len(), i+1)
		}
		// Remaining keys stay reachable.
		if i%37 == 0 {
			for _, rest := range keys[i+1:] {
				if _, ok := bt.Get([]byte(rest)); !ok {
					t.Fatalf("key %q lost after deleting %q", rest, k)
				}
			}
		}
	}
}

func TestBTreeAscendRange(t *testing.T) {
	bt := newBTree(2)
	for i := 0; i < 50; i++ {
		bt.Put([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	var got []string
	bt.Ascend([]byte("k10"), []byte("k15"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"k10", "k11", "k12", "k13", "k14"}
	if len(got) != len(want) {
		t.Fatalf("range scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan = %v", got)
		}
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	bt := newBTree(2)
	for i := 0; i < 50; i++ {
		bt.Put([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	n := 0
	bt.Ascend(nil, nil, func(k, v []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property: the tree agrees with a reference map under random puts/deletes,
// and Ascend yields sorted keys.
func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		bt := newBTree(2)
		ref := map[string]string{}
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%02d", rng.IntN(60))
			switch rng.IntN(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", i)
				bt.Put([]byte(k), []byte(v))
				ref[k] = v
			case 2:
				bt.Delete([]byte(k))
				delete(ref, k)
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		var keys []string
		bt.Ascend(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		})
		return sort.StringsAreSorted(keys) && len(keys) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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

func TestSnapshotRoundTrip(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open("")
	defer s2.Close()
	if err := s2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 30 {
		t.Fatalf("loaded %d keys", s2.Len())
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
	s.wal.close()
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
