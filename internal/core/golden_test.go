package core

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// The store formats are frozen: these tests were written against the commit
// before the codecs moved onto the shared cursor and pass unmodified on both
// sides of that change. They use only the ensemble's public persistence
// surface, so no refactor of the decoders can make them drift.

// goldenRecords is the tiny hand-built stream behind both fixtures: three
// files in two directories accessed by one user, then a fourth file without
// a path (its vector ends in an empty string).
func goldenRecords() []trace.Record {
	files := []struct {
		f    trace.FileID
		path string
	}{{1, "/p/a"}, {2, "/p/b"}, {3, "/q/c"}, {1, "/p/a"}, {2, "/p/b"}, {0x0304, ""}, {1, "/p/a"}, {3, "/q/c"}}
	recs := make([]trace.Record, len(files))
	for i, x := range files {
		recs[i] = trace.Record{Seq: uint64(i), File: x.f, UID: 7, PID: 9, Host: 2, Path: x.path}
	}
	return recs
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	return cfg
}

// storeContents returns every key/value of st, hex-encoded, in key order.
func storeContents(st *kvstore.Store) [][2]string {
	var out [][2]string
	st.Scan(nil, nil, func(k, v []byte) bool {
		out = append(out, [2]string{hex.EncodeToString(k), hex.EncodeToString(v)})
		return true
	})
	return out
}

// goldenStore is goldenRecords mined at goldenConfig and saved once: every
// c/ v/ g/ key (prefix + big-endian file id) and the three m/ records.
var goldenStore = [][2]string{
	{"632f00000001", "0300000002000000f287031e7f38ea3f000000000000ec3f7c1a61b9a711e63f03000000999999999999e43f000000000000e83f555555555555d93f040300002d71eaf7dc12e33f000000000000e83f0ee53594d750ce3f"},
	{"632f00000002", "03000000010000005be2d4efb925e83f000000000000ec3f0ee53594d750de3f0300000008146d35788ee43f000000000000e83f91852c64210bd93f04030000f8c3018f3f1ce43f000000000000e83f7c1a61b9a711d63f"},
	{"632f00000003", "0300000001000000666666666666ea3f000000000000e83f000000000000f03f020000008e150823ed58e53f000000000000e83f0ee53594d750de3f040300004ffaa44ffaa4e33f000000000000e83f682fa1bd84f6d23f"},
	{"632f00000304", "0200000001000000666666666666ea3f000000000000e83f000000000000f03f030000008e150823ed58e53f000000000000e83f0ee53594d750de3f"},
	{"672f00000001", "33333333333313400300000002000000000000000000004003000000666666666666fe3f04030000cdccccccccccec3f"},
	{"672f00000002", "66666666666612400300000001000000cdccccccccccfc3f03000000cdccccccccccfc3f04030000000000000000f03f"},
	{"672f00000003", "9a999999999905400300000001000000000000000000f03f02000000cdccccccccccec3f040300009a9999999999e93f"},
	{"672f00000304", "666666666666fe3f0200000001000000000000000000f03f03000000cdccccccccccec3f"},
	// m/config, m/epoch, m/window
	{"6d2f636f6e666967", "666666666666e63f9a9999999999d93f0800000000000000"},
	{"6d2f65706f6368", "01000000000000000800000000000000"},
	{"6d2f77696e646f77", "03000000040300000100000003000000"},
	{"762f00000001", "0300000003000000753a3703000000703a3903000000683a32040000002f702f61"},
	{"762f00000002", "0300000003000000753a3703000000703a3903000000683a32040000002f702f62"},
	{"762f00000003", "0300000003000000753a3703000000703a3903000000683a32040000002f712f63"},
	{"762f00000304", "0300000003000000753a3703000000703a3903000000683a3200000000"},
}

func TestStoreGoldenBytes(t *testing.T) {
	sm := NewSharded(goldenConfig())
	sm.FeedBatch(goldenRecords())
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	got := storeContents(st)
	if !reflect.DeepEqual(got, goldenStore) {
		t.Fatalf("saved bytes differ from the golden store:\n got  %v\n want %v", got, goldenStore)
	}

	// hex → decode: the golden bytes alone restore the model exactly.
	st2, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, kv := range goldenStore {
		if err := st2.Put(mustUnhex(t, kv[0]), mustUnhex(t, kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 3} {
		cfg := goldenConfig()
		cfg.Shards = shards
		sm2 := NewSharded(cfg)
		if err := sm2.LoadMerged(st2); err != nil {
			t.Fatalf("shards=%d: loading the golden store: %v", shards, err)
		}
		if sm2.Fed() != sm.Fed() {
			t.Fatalf("shards=%d: fed %d, want %d", shards, sm2.Fed(), sm.Fed())
		}
		if !reflect.DeepEqual(sm2.WindowTail(), sm.WindowTail()) {
			t.Fatalf("shards=%d: window %v, want %v", shards, sm2.WindowTail(), sm.WindowTail())
		}
		for _, r := range goldenRecords() {
			if got, want := sm2.CorrelatorList(r.File), sm.CorrelatorList(r.File); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: list %d decoded to %+v, want %+v", shards, r.File, got, want)
			}
			gv, _ := sm2.Vector(r.File)
			wv, _ := sm.Vector(r.File)
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("shards=%d: vector %d decoded to %+v, want %+v", shards, r.File, gv, wv)
			}
		}
		// ... and re-encodes to the same bytes (graph nodes included).
		st3, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer st3.Close()
		if err := sm2.SaveMerged(st3); err != nil {
			t.Fatal(err)
		}
		if again := storeContents(st3); !reflect.DeepEqual(again, goldenStore) {
			t.Fatalf("shards=%d: decode then encode changed the bytes:\n got  %v\n want %v", shards, again, goldenStore)
		}
	}
	w, ms, fed, err := ReadSavedConfig(st2)
	if err != nil || w != 0.7 || ms != 0.4 || fed != 8 {
		t.Fatalf("ReadSavedConfig = %v %v %v %v, want 0.7 0.4 8 <nil>", w, ms, fed, err)
	}
}

func mustUnhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadsParentWAL is the cross-version check. testdata/parent_store.wal
// was written by SaveMerged at commit 96d9c27 (the last one whose store
// decoders went through binary.Read) from goldenRecords on a 2-shard
// ensemble; do not regenerate it with newer code. It must load, fingerprint
// equal to the model that wrote it, and continue mining bit-identically to an
// uninterrupted sequential model.
func TestLoadsParentWAL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_store.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	recs := goldenRecords()
	ref := New(goldenConfig())
	for i := range recs {
		ref.Feed(&recs[i])
	}
	const fileCount = 0x0305
	want := StateFingerprint(ref, fileCount)
	if got, err := StoreFingerprint(st, fileCount); err != nil || got != want {
		t.Fatalf("StoreFingerprint of the parent's WAL = %#x, %v; the sequential model is %#x", got, err, want)
	}
	sm := NewSharded(goldenConfig())
	if err := sm.LoadMerged(st); err != nil {
		t.Fatal(err)
	}
	if got := StateFingerprint(sm, fileCount); got != want {
		t.Fatalf("loaded state fingerprints %#x, want %#x", got, want)
	}
	// The same records again: every list, edge and the window are live.
	for i := range recs {
		r := recs[i]
		r.Seq += uint64(len(recs))
		ref.Feed(&r)
		sm.Feed(&r)
	}
	if got, want := StateFingerprint(sm, fileCount), StateFingerprint(ref, fileCount); got != want {
		t.Fatalf("diverged after continuing from the parent's WAL: %#x vs %#x", got, want)
	}
	// A save by this build holds the very bytes the parent would write.
	mem, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	sm3 := NewSharded(goldenConfig())
	if err := sm3.LoadMerged(st); err != nil {
		t.Fatal(err)
	}
	if err := sm3.SaveMerged(mem); err != nil {
		t.Fatal(err)
	}
	if a, b := storeContents(st), storeContents(mem); !reflect.DeepEqual(a, b) {
		t.Fatalf("re-saved store differs from the parent's:\n got  %v\n want %v", b, a)
	}
}

// goldenLog is the log file a full save of goldenRecords leaves over a
// store an earlier save wrote, one frame a line: a put for each live key in
// key order, no batch markers, nothing of the earlier save's file 0x0505.
// The hex was written at commit 1c7071a, whose full save appended to the log
// and was followed by Compact; do not regenerate it.
var goldenLog = strings.Join([]string{
	"f30caf20010600000058000000632f000000010300000002000000f287031e7f38ea3f000000000000ec3f7c1a61b9a711e63f03000000999999999999e43f000000000000e83f555555555555d93f040300002d71eaf7dc12e33f000000000000e83f0ee53594d750ce3f",
	"6e0432cb010600000058000000632f0000000203000000010000005be2d4efb925e83f000000000000ec3f0ee53594d750de3f0300000008146d35788ee43f000000000000e83f91852c64210bd93f04030000f8c3018f3f1ce43f000000000000e83f7c1a61b9a711d63f",
	"0cd3ebaa010600000058000000632f000000030300000001000000666666666666ea3f000000000000e83f000000000000f03f020000008e150823ed58e53f000000000000e83f0ee53594d750de3f040300004ffaa44ffaa4e33f000000000000e83f682fa1bd84f6d23f",
	"944ac5dd01060000003c000000632f000003040200000001000000666666666666ea3f000000000000e83f000000000000f03f030000008e150823ed58e53f000000000000e83f0ee53594d750de3f",
	"3dc7b8f1010600000030000000672f0000000133333333333313400300000002000000000000000000004003000000666666666666fe3f04030000cdccccccccccec3f",
	"9d432ff7010600000030000000672f0000000266666666666612400300000001000000cdccccccccccfc3f03000000cdccccccccccfc3f04030000000000000000f03f",
	"91ce719b010600000030000000672f000000039a999999999905400300000001000000000000000000f03f02000000cdccccccccccec3f040300009a9999999999e93f",
	"437b11e8010600000024000000672f00000304666666666666fe3f0200000001000000000000000000f03f03000000cdccccccccccec3f",
	"be6f8d6f0108000000180000006d2f636f6e666967666666666666e63f9a9999999999d93f0800000000000000",
	"9d7d89930107000000100000006d2f65706f636802000000000000000800000000000000",
	"7fc843f90108000000100000006d2f77696e646f7703000000040300000100000003000000",
	"2262ed27010600000021000000762f000000010300000003000000753a3703000000703a3903000000683a32040000002f702f61",
	"c2c062d3010600000021000000762f000000020300000003000000753a3703000000703a3903000000683a32040000002f702f62",
	"55cb2581010600000021000000762f000000030300000003000000753a3703000000703a3903000000683a32040000002f712f63",
	"de55e63801060000001d000000762f000003040300000003000000753a3703000000703a3903000000683a3200000000",
}, "")

// TestFullSaveLogGoldenBytes pins those bytes: a full checkpoint over a
// store that holds an earlier one replaces it with exactly the compacted log
// of the new state.
func TestFullSaveLogGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	st, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	earlier := NewSharded(goldenConfig())
	earlier.FeedBatch(append(goldenRecords(), trace.Record{Seq: 8, File: 0x0505, UID: 7, PID: 9, Host: 2, Path: "/r/e"}))
	if err := earlier.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	sm := NewSharded(goldenConfig())
	sm.FeedBatch(goldenRecords())
	if err := errors.Join(sm.SaveMerged(st), st.Close()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != goldenLog {
		t.Fatalf("log after a full save:\n got  %s\n want %s", got, goldenLog)
	}
}
