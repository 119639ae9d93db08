package core

import (
	"path/filepath"
	"runtime"
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// The allocation gate: the steady-state mining path allocates nothing per
// record (a vector's scalar items are values inside it) and a sharded batch
// allocates per call, not per record or event. A change that puts a
// per-record allocation back fails here instead of showing up later as a
// slower ledger row.

// TestFeedAllocsPerRecord runs HP with and without dirty tracking, RES under
// a file-id mask (every file its own scalar items) and an HP whose noise
// spans more (user, process, host) tuples than any table of them would
// hold: none may allocate per record.
func TestFeedAllocsPerRecord(t *testing.T) {
	wide := tracegen.HP(40000)
	wide.Hosts, wide.NoiseRatio = 8, 0.9
	fileIDs := DefaultConfig()
	fileIDs.Mask = vsm.AllFileIDMask
	for _, tc := range []struct {
		name      string
		p         tracegen.Profile
		cfg       Config
		dirty     bool
		minTuples int // distinct (uid, pid, host) the trace must have
	}{
		{"HP", tracegen.HP(20000), DefaultConfig(), false, 0},
		{"HP dirty", tracegen.HP(20000), DefaultConfig(), true, 0},
		{"RES file ids", tracegen.RES(20000), fileIDs, false, 0},
		{"HP wide", wide, DefaultConfig(), false, 1<<14 + 1},
	} {
		tr := tc.p.MustGenerate()
		tuples := make(map[[3]uint32]bool)
		for _, r := range tr.Records {
			tuples[[3]uint32{r.UID, r.PID, r.Host}] = true
		}
		if len(tuples) < tc.minTuples {
			t.Fatalf("%s: %d (uid, pid, host) tuples, want at least %d", tc.name, len(tuples), tc.minTuples)
		}
		m := NewSharded(tc.cfg) // one shard: Model.Feed behind the dispatch lock
		m.FeedBatch(tr.Records) // warm: every file tracked, every list and edge table grown
		if tc.dirty {
			st, err := kvstore.Open("")
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := m.SaveMerged(st); err != nil { // a completed save turns dirty tracking on
				t.Fatal(err)
			}
			m.FeedBatch(tr.Records) // warm the dirty set too
		}
		i := 0
		perRecord := mallocsPerRun(len(tr.Records), func() {
			m.Feed(&tr.Records[i%len(tr.Records)])
			i++
		})
		t.Logf("%s (%d tuples): %.4f allocs/record", tc.name, len(tuples), perRecord)
		if perRecord >= 0.005 {
			t.Errorf("%s: Model.Feed allocates %.2f times per record at steady state, want 0.00", tc.name, perRecord)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its integer division: one
// record in three allocating reads 0.33, not 0. (A list the validity filter
// empties is allocated again when a later degree refills it: about one
// record in a thousand here, which is state, not a per-record cost.)
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestCheckpointDeltaAllocsPerPut: a delta checkpoint at the working set,
// into a WAL on disk, allocates almost nothing per record it stages: a delta
// mostly overwrites keys, and the store writes a value over its old bytes
// when they fit, so only a new key or a value that grew allocates. Mallocs
// are counted exactly, over three saves.
func TestCheckpointDeltaAllocsPerPut(t *testing.T) {
	sm, tr := workingSet()
	st, err := kvstore.Open(filepath.Join(t.TempDir(), "store.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sm.SaveMerged(st); err != nil { // a completed save turns dirty tracking on
		t.Fatal(err)
	}
	var mallocs, puts uint64
	for save, next := 0, 0; save < 3; save++ {
		for range deltaChunks {
			sm.FeedBatch(tr.Records[next : next+workingSetBatch])
			next += workingSetBatch
		}
		pre := st.WriteStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inc, err := sm.SaveCheckpoint(st)
		runtime.ReadMemStats(&after)
		if err != nil || !inc {
			t.Fatalf("save %d: incremental=%v, %v", save, inc, err)
		}
		mallocs += after.Mallocs - before.Mallocs
		puts += uint64(st.WriteStats().Puts - pre.Puts)
	}
	perPut := float64(mallocs) / float64(puts)
	t.Logf("%d mallocs for %d staged puts: %.3f per put", mallocs, puts, perPut)
	if perPut > 0.05 {
		t.Errorf("a delta checkpoint allocates %.3f times per staged put, want at most 0.05", perPut)
	}
}

func TestFeedBatchAllocsPerCall(t *testing.T) {
	const batch = 1024
	tr := tracegen.HP(20 * batch).MustGenerate()
	cfg := DefaultConfig()
	cfg.Shards = 2
	sm := NewSharded(cfg)
	sm.FeedBatch(tr.Records)
	i := 0
	perCall := testing.AllocsPerRun(len(tr.Records)/batch, func() {
		sm.FeedBatch(tr.Records[i*batch : (i+1)*batch])
		i = (i + 1) % (len(tr.Records) / batch)
	})
	// What the batch machinery allocates — goroutines, channels, closures, a
	// chunk the pool had dropped — must not grow with the records or the ~4
	// events each fans out to.
	t.Logf("%.0f allocs per FeedBatch(%d)", perCall, batch)
	if perCall > 64 {
		t.Errorf("FeedBatch(%d) at 2 shards allocates %.0f times per call; want O(1) per call", batch, perCall)
	}
}

// TestApplyEventsAllocsPerCall: what ApplyEvents works in is a block on its
// stack, whatever it is handed — a 512-event chunk of FeedBatch's or
// 100 000 events at once — so a call on a warmed model allocates nothing. (At max_strength 0 no list is filtered empty and
// grown again, so the state allocates nothing either and the count is exact.)
func TestApplyEventsAllocsPerCall(t *testing.T) {
	tr := tracegen.HP(30000).MustGenerate()
	cfg := DefaultConfig()
	cfg.MaxStrength = 0
	seq := NewSharded(cfg) // sequences only: its events go to the Model below
	for _, n := range []int{eventChunk, 100_000} {
		var evs []partition.Event
		for i := 0; len(evs) < n; i++ {
			seq.DispatchExternal(&tr.Records[i], func(_ int, ev partition.Event) { evs = append(evs, ev) })
		}
		evs = evs[:n]
		m := New(cfg)
		m.ApplyEvents(evs) // warm: every file tracked, every list and edge table grown
		if perCall := testing.AllocsPerRun(10, func() { m.ApplyEvents(evs) }); perCall > 0 {
			t.Errorf("ApplyEvents of %d events allocates %.0f times a call at steady state, want 0", n, perCall)
		}
	}
}
