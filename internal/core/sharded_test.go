package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// shardTrace generates a mid-size HP-style trace for equivalence checks.
func shardTrace(t testing.TB, records int) *trace.Trace {
	t.Helper()
	tr, err := tracegen.HP(records).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertModelsEqual compares the complete mined state (Correlator Lists,
// degrees, graph footprint) of two miners over every file of the trace.
// tol = 0 demands bit-identical degrees.
func assertModelsEqual(t *testing.T, tr *trace.Trace, want *Model, got *ShardedModel, tol float64) {
	t.Helper()
	ws, gs := want.Stats(), got.Stats()
	if ws.Fed != gs.Fed || ws.TrackedFiles != gs.TrackedFiles || ws.Lists != gs.Lists ||
		ws.Correlators != gs.Correlators || ws.GraphNodes != gs.GraphNodes || ws.GraphEdges != gs.GraphEdges {
		t.Errorf("stats diverge: single %+v sharded %+v", ws, gs)
	}
	for f := 0; f < tr.FileCount; f++ {
		id := trace.FileID(f)
		wl, gl := want.CorrelatorList(id), got.CorrelatorList(id)
		if len(wl) != len(gl) {
			t.Fatalf("file %d: list length %d vs %d", f, len(wl), len(gl))
		}
		for i := range wl {
			if wl[i].File != gl[i].File {
				t.Fatalf("file %d entry %d: successor %d vs %d", f, i, wl[i].File, gl[i].File)
			}
			if d := math.Abs(wl[i].Degree - gl[i].Degree); d > tol {
				t.Fatalf("file %d entry %d: degree %v vs %v (|Δ| = %g > %g)",
					f, i, wl[i].Degree, gl[i].Degree, d, tol)
			}
		}
		wp, gp := want.Predict(id, 4), got.Predict(id, 4)
		if len(wp) != len(gp) {
			t.Fatalf("file %d: predict length %d vs %d", f, len(wp), len(gp))
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("file %d: prediction %d is %d vs %d", f, i, wp[i], gp[i])
			}
		}
	}
}

// TestShardedSingleShardBitIdentical: Shards 0 and 1 both mean one shard,
// and the batch path — which applies a lone shard's events inline, with no
// worker — reproduces the sequential Model exactly.
func TestShardedSingleShardBitIdentical(t *testing.T) {
	tr := shardTrace(t, 4000)
	for _, shards := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		single := New(DefaultConfig())
		single.FeedTrace(tr)
		sm := NewSharded(cfg)
		sm.FeedTraceParallel(tr)
		assertModelsEqual(t, tr, single, sm, 0)
	}
}

// TestShardedEquivalence feeds the same trace through the single-lock Model
// and through N-shard ensembles via both the streaming Feed and the batch
// path. The sharded dispatcher replays the same window in the same order,
// so the final state must match exactly, not just within tolerance.
func TestShardedEquivalence(t *testing.T) {
	tr := shardTrace(t, 6000)
	single := New(DefaultConfig())
	single.FeedTrace(tr)
	for _, shards := range []int{2, 5} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		batch := NewSharded(cfg)
		batch.FeedTraceParallel(tr)
		assertModelsEqual(t, tr, single, batch, 0)

		stream := NewSharded(cfg)
		for i := range tr.Records {
			stream.Feed(&tr.Records[i])
		}
		assertModelsEqual(t, tr, single, stream, 0)
	}
}

// TestShardedMatchesModelAfterEveryRecord: the streaming path is
// bit-identical to the sequential Model at every record boundary, not only
// at the end — lists and predictions of every file the record could have
// touched, the record counter and the lookahead window. One shard runs the
// same dispatcher as four; it has no private window or counter to drift.
func TestShardedMatchesModelAfterEveryRecord(t *testing.T) {
	tr := shardTrace(t, 3000)
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		sm := NewSharded(cfg)
		ref := New(DefaultConfig())
		for i := range tr.Records {
			touched := append(ref.WindowTail(), tr.Records[i].File)
			ref.Feed(&tr.Records[i])
			sm.Feed(&tr.Records[i])
			if got, want := sm.Fed(), ref.Fed(); got != want {
				t.Fatalf("shards=%d record %d: fed %d, sequential %d", shards, i, got, want)
			}
			if got, want := sm.WindowTail(), ref.WindowTail(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d record %d: window %v, sequential %v", shards, i, got, want)
			}
			for _, f := range touched {
				if got, want := sm.CorrelatorList(f), ref.CorrelatorList(f); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d record %d file %d: list %v, sequential %v", shards, i, f, got, want)
				}
				if got, want := sm.Predict(f, 4), ref.Predict(f, 4); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d record %d file %d: predict %v, sequential %v", shards, i, f, got, want)
				}
			}
		}
		assertModelsEqual(t, tr, ref, sm, 0)
	}
}

// TestShardedListCopiesAreIndependent: mutating a returned list must not
// reach the owning shard's stored list.
func TestShardedListCopiesAreIndependent(t *testing.T) {
	tr := shardTrace(t, 2000)
	sm := NewSharded(DefaultConfig())
	sm.FeedBatch(tr.Records)
	for i := range tr.Records {
		f := tr.Records[i].File
		got := sm.CorrelatorList(f)
		if len(got) == 0 {
			continue
		}
		want := append([]Correlator(nil), got...)
		got[0].File = 0xDEAD
		got[0].Degree = -1
		if again := sm.CorrelatorList(f); !reflect.DeepEqual(again, want) {
			t.Fatalf("caller mutation leaked into the shard: %v", again)
		}
		return
	}
	t.Skip("trace mined no correlations")
}

// TestShardReadsRaceIngest drives readers straight at the shard locks while
// batches mine, under -race. A read is never torn: every list it returns is
// a whole, sorted Correlator List whose entries satisfy R = p·sim + (1−p)·F
// above the threshold. After ingest, reads equal the sequential Model.
func TestShardReadsRaceIngest(t *testing.T) {
	tr := shardTrace(t, 20_000)
	cfg := DefaultConfig()
	cfg.Shards = 4
	sm := NewSharded(cfg)

	stopReaders := raceReaders(t, tr, sm)
	for lo := 0; lo < len(tr.Records); lo += 1000 {
		sm.FeedBatch(tr.Records[lo:min(lo+1000, len(tr.Records))])
	}
	stopReaders()

	ref := New(cfg)
	ref.FeedTrace(tr)
	assertModelsEqual(t, tr, ref, sm, 0)
}

// raceReaders starts four goroutines reading the files of tr straight off
// sm's shard locks, failing t on a torn or unsorted list, until the returned
// function is called; it returns once they have stopped.
func raceReaders(t *testing.T, tr *trace.Trace, sm *ShardedModel) (stopAndWait func()) {
	cfg := sm.Config()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f := tr.Records[(seed*7919+i)%len(tr.Records)].File
				list := sm.CorrelatorList(f)
				for j := range list {
					c := &list[j]
					if c.Degree <= cfg.MaxStrength || c.Degree != cfg.Weight*c.Sim+(1-cfg.Weight)*c.Freq {
						t.Errorf("file %d: torn entry %+v", f, *c)
						return
					}
					if j > 0 && !ranksBefore(&list[j-1], c) {
						t.Errorf("file %d: list out of order at %d: %v", f, j, list)
						return
					}
				}
				if p := sm.Predict(f, 4); len(p) > 4 {
					t.Errorf("file %d: predict returned %d > 4", f, len(p))
					return
				}
			}
		}(g)
	}
	return func() {
		stop.Store(true)
		wg.Wait()
	}
}

// TestEventsOfOneRecordShareOneVector: FeedBatch points the events of each
// record at a slot of a scratch the ensemble keeps and writes over in the
// next call — batches of 1024, 3 and 5000 (past the bound: a slice of its
// own), of 63, 64, 65 and 129 (chunks that end just short of, on and just past
// the block ApplyEvents mines at a time) and single Feeds in between, shard
// workers reading the slots while the dispatcher fills later ones and readers
// at the shard locks — and the mined state is the sequential Model's. Under
// -race a slot reused before its events were applied fails here by itself.
func TestEventsOfOneRecordShareOneVector(t *testing.T) {
	sizes := []int{1024, 3, 5000, applyBlock - 1, applyBlock, applyBlock + 1, 2*applyBlock + 1}
	round := 2 // the single Feeds
	for _, n := range sizes {
		round += n
	}
	tr := shardTrace(t, 3*round)
	ref := New(DefaultConfig())
	ref.FeedTrace(tr)
	for _, shards := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		sm := NewSharded(cfg)
		stopReaders := raceReaders(t, tr, sm)
		recs := tr.Records
		for len(recs) > 0 {
			for _, n := range sizes {
				sm.FeedBatch(recs[:n])
				recs = recs[n:]
			}
			sm.Feed(&recs[0])
			sm.Feed(&recs[1])
			recs = recs[2:]
		}
		stopReaders()
		if cap(sm.vecs) != 1024 {
			t.Errorf("%d shards: the ensemble keeps %d vectors, want the 1024 of its largest batch under the bound", shards, cap(sm.vecs))
		}
		assertModelsEqual(t, tr, ref, sm, 0)
	}
}

// TestApplyEventsReadsNilVectorAsEmpty: an event built without a vector — a
// literal in a test, nothing a dispatcher or a decoder emits — is applied as
// one carrying the empty vector: the access installs it, the edge is
// evaluated against it.
func TestApplyEventsReadsNilVectorAsEmpty(t *testing.T) {
	known := &vsm.Vector{Scalars: []string{"u:1"}, Path: "/a/b"}
	events := func(none *vsm.Vector) []partition.Event {
		return []partition.Event{
			{Succ: 1, Vec: known, Seq: 1, Access: true},
			{Succ: 2, Vec: none, Seq: 2, Access: true},
			{Pred: 1, Succ: 2, Credit: 1, Vec: none, Seq: 2},
			{Succ: 1, Vec: known, Seq: 3, Access: true},
			{Pred: 2, Succ: 1, Credit: 1, Vec: known, Seq: 3},
		}
	}
	cfg := DefaultConfig()
	cfg.MaxStrength = 0.1 // frequency alone carries both edges over the threshold
	got, want := New(cfg), New(cfg)
	got.ApplyEvents(events(nil))
	want.ApplyEvents(events(new(vsm.Vector)))
	if v, ok := got.Vector(2); !ok || !reflect.DeepEqual(v, vsm.Vector{}) {
		t.Errorf("an access event without a vector installed %+v, %v; want the empty vector", v, ok)
	}
	for f := trace.FileID(1); f <= 2; f++ {
		if g, w := got.CorrelatorList(f), want.CorrelatorList(f); len(w) != 1 || !reflect.DeepEqual(g, w) {
			t.Errorf("file %d: list %+v without a vector, %+v with the empty one", f, g, w)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Errorf("stats %+v without a vector, %+v with the empty one", g, w)
	}
}

// applied is everything a run of ApplyEvents calls leaves behind and tells
// anybody: the lists' fingerprint, every record whole (facets, dirty marks and
// a full node's remembered victim included), the dirty ids in the order they
// were first marked, and the list hook's calls in order.
type applied struct {
	fingerprint uint64
	files       map[trace.FileID]file
	dirty       []trace.FileID
	hooked      []trace.FileID
}

// applyCalls applies each of calls with one ApplyEvents to a fresh model that
// tracks dirty facets, as one that has checkpointed does.
func applyCalls(cfg Config, fileCount int, calls ...[]partition.Event) applied {
	m := New(cfg)
	m.resetDirtyLocked()
	a := applied{files: make(map[trace.FileID]file)}
	m.SetListChangeHook(func(f trace.FileID) { a.hooked = append(a.hooked, f) })
	for _, evs := range calls {
		m.ApplyEvents(evs)
	}
	a.fingerprint = StateFingerprint(m, fileCount)
	for f, fp := range m.files {
		a.files[f] = *fp
	}
	a.dirty = m.dirtyIDs
	return a
}

// TestApplyEventsIsSplitInvariant: ApplyEvents resolves a block of events to
// their records before it mines the first of them, and where a stream is cut
// — into blocks inside a call, into calls — shows nowhere. The streams come
// off a dispatcher fed a few dozen files at random, new ones turning up all
// the way through: files first named in the middle of a block, an access with
// the edges that name its file as predecessor a few events behind it (they
// compare against the vector that access installed), one file in two window
// slots, full edge tables and lists, and a record's worth of events that
// carry no vector. Applied whole, cut in two at every k, and one event a
// call, a stream leaves one state, one dirty order and one hook sequence.
func TestApplyEventsIsSplitInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxStrength = 0.3
	cfg.MaxCorrelators = 3
	cfg.Graph.MaxSuccessors = 4
	rng := rand.New(rand.NewPCG(23, 64))
	for round := 0; round < 8; round++ {
		seq := NewSharded(cfg) // sequences only: its events go to fresh Models
		var evs []partition.Event
		var files []trace.FileID
		records, fileCount, twice := 30+rng.IntN(60), 6, false
		for i := 0; i < records; i++ {
			if rng.IntN(4) == 0 {
				fileCount++ // the next draw may be a file nobody has named
			}
			f := trace.FileID(rng.IntN(fileCount))
			if i%7 == 2 {
				f = files[i-2] // A B A: the next record finds A in two slots
			}
			files = append(files, f)
			r := trace.Record{File: f, UID: uint32(f % 3), PID: uint32(f % 2), Path: fmt.Sprintf("/home/u%d/d%d/f%d", f%3, f%5, f)}
			first := len(evs)
			seq.DispatchExternal(&r, func(_ int, ev partition.Event) { evs = append(evs, ev) })
			for j := first; j < len(evs); j++ {
				twice = twice || j > first+1 && evs[j].Pred == evs[j-1].Pred || j > first+2 && evs[j].Pred == evs[j-2].Pred
				if i%11 == 5 {
					evs[j].Vec = nil
				}
			}
		}
		if !twice {
			t.Fatalf("round %d: no record found a file in two window slots", round)
		}
		if len(evs) <= 2*applyBlock {
			t.Fatalf("round %d: %d events do not span three blocks", round, len(evs))
		}

		whole := applyCalls(cfg, fileCount, evs)
		if len(whole.hooked) == 0 || len(whole.dirty) == 0 || whole.fingerprint == StateFingerprint(New(cfg), fileCount) {
			t.Fatalf("round %d: %d events mined nothing to compare", round, len(evs))
		}
		same := func(how string, got applied) {
			t.Helper()
			if got.fingerprint != whole.fingerprint {
				t.Errorf("round %d, %s: fingerprint %#x, applied whole %#x", round, how, got.fingerprint, whole.fingerprint)
			}
			if !reflect.DeepEqual(got.files, whole.files) {
				t.Errorf("round %d, %s: the records differ from those of the stream applied whole", round, how)
			}
			if !reflect.DeepEqual(got.dirty, whole.dirty) {
				t.Errorf("round %d, %s: dirty ids %v, applied whole %v", round, how, got.dirty, whole.dirty)
			}
			if !reflect.DeepEqual(got.hooked, whole.hooked) {
				t.Errorf("round %d, %s: list hook saw %v, applied whole %v", round, how, got.hooked, whole.hooked)
			}
		}
		for k := 0; k <= len(evs) && !t.Failed(); k++ {
			same(fmt.Sprintf("cut at %d of %d", k, len(evs)), applyCalls(cfg, fileCount, evs[:k], evs[k:]))
		}
		single := make([][]partition.Event, len(evs))
		for i := range evs {
			single[i] = evs[i : i+1]
		}
		same("one event a call", applyCalls(cfg, fileCount, single...))
	}
}

// TestResetKeepsNoRecord: a Model points at file records from its map and,
// between Feeds, from the window-slot scratch of the last one (ApplyEvents
// keeps its block on the stack); the reset a catch-up cut's install starts
// with replaces the map and must not leave the scratch holding the old one's
// records.
func TestResetKeepsNoRecord(t *testing.T) {
	tr := shardTrace(t, 500)
	sm := NewSharded(DefaultConfig())
	m := sm.Shard(0)
	m.FeedTrace(tr)
	kept := 0
	for _, h := range m.hits {
		if h.fp != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("Feed left no record in its scratch: nothing to check")
	}
	empty, err := NewSharded(DefaultConfig()).Cut()
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.LoadCut(empty, 0, StateFingerprint(sm, 0), 0); err != nil {
		t.Fatal(err)
	}
	if len(m.files) != 0 {
		t.Errorf("%d records in the map after an empty cut's install", len(m.files))
	}
	for i, h := range m.hits {
		if h != (hit{}) {
			t.Errorf("window slot %d of Feed's scratch still holds %+v after an empty cut's install", i, h)
		}
	}
}

// TestVectorScratchIsBounded: what the ensemble keeps between calls is at
// most maxKeptVectors vectors, whatever it was fed — the batch an 8 MiB frame
// decodes to extracts into a slice of its own, and once it returns nothing
// reaches that slice: not the scratch, not a pooled event chunk.
func TestVectorScratchIsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	sm := NewSharded(cfg)
	small := make([]trace.Record, maxKeptVectors)
	huge := make([]trace.Record, (8<<20)/trace.RecordFixedLen)
	for i := range huge {
		huge[i].File = trace.FileID(i % 512)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	fed := 0
	for _, recs := range [][]trace.Record{small[:3], huge, small[:3], small, huge[:maxKeptVectors+1]} {
		sm.FeedBatch(recs)
		if fed += len(recs); cap(sm.vecs) > maxKeptVectors {
			t.Fatalf("after a %d-record batch the ensemble keeps a scratch of %d vectors, bound %d", len(recs), cap(sm.vecs), maxKeptVectors)
		}
		if len(recs) == 3 && fed > len(huge) {
			// The huge batch's vectors, 80 bytes a record, are garbage by now;
			// the chunks its events filled are back in the pool, three events
			// into their next use.
			if kept := int64(live() - before); kept > int64(len(huge))*int64(unsafe.Sizeof(vsm.Vector{}))/4 {
				t.Fatalf("a %d-record batch left %d bytes live", len(huge), kept)
			}
		}
	}
	if sm.Fed() != uint64(fed) {
		t.Fatalf("mined %d records, want %d", sm.Fed(), fed)
	}
	if cap(sm.vecs) != maxKeptVectors {
		t.Errorf("scratch holds %d vectors, want the %d of the largest batch under the bound", cap(sm.vecs), maxKeptVectors)
	}
}

// TestShardedBatchSplitEquivalence checks that the lookahead window carries
// across FeedBatch calls: many small batches must equal one big batch.
func TestShardedBatchSplitEquivalence(t *testing.T) {
	tr := shardTrace(t, 4000)
	single := New(DefaultConfig())
	single.FeedTrace(tr)
	cfg := DefaultConfig()
	cfg.Shards = 4
	sm := NewSharded(cfg)
	const step = 777 // deliberately not a multiple of anything
	for lo := 0; lo < len(tr.Records); lo += step {
		hi := lo + step
		if hi > len(tr.Records) {
			hi = len(tr.Records)
		}
		sm.FeedBatch(tr.Records[lo:hi])
	}
	assertModelsEqual(t, tr, single, sm, 0)
}

// TestFeedBatchIsDoneWithItsRecords: FeedBatch returns after every shard has
// drained, having kept nothing of the slice it was handed — what lets a
// caller (an rpc connection) decode the next batch over the same records.
// Under -race a shard still reading the slice fails here by itself.
func TestFeedBatchIsDoneWithItsRecords(t *testing.T) {
	tr := shardTrace(t, 4000)
	single := New(DefaultConfig())
	single.FeedTrace(tr)
	cfg := DefaultConfig()
	cfg.Shards = 4
	sm := NewSharded(cfg)
	scratch := make([]trace.Record, 500)
	for lo := 0; lo < len(tr.Records); lo += len(scratch) {
		sm.FeedBatch(scratch[:copy(scratch, tr.Records[lo:])])
		clear(scratch)
	}
	assertModelsEqual(t, tr, single, sm, 0)
}

// TestShardedParallelFeed hammers one ensemble from many goroutines mixing
// Feed, FeedBatch and reads — the -race exercise for the concurrency claim.
// Interleaving order is nondeterministic, so it asserts only invariants:
// the fed count, and that reads never tear.
func TestShardedParallelFeed(t *testing.T) {
	tr := shardTrace(t, 6000)
	cfg := DefaultConfig()
	cfg.Shards = runtime.GOMAXPROCS(0)
	sm := NewSharded(cfg)

	workers := 4
	per := len(tr.Records) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == workers-1 {
			hi = len(tr.Records)
		}
		wg.Add(1)
		go func(recs []trace.Record, batch bool) {
			defer wg.Done()
			if batch {
				sm.FeedBatch(recs)
				return
			}
			for i := range recs {
				sm.Feed(&recs[i])
			}
		}(tr.Records[lo:hi], w%2 == 0)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := trace.FileID(i % tr.FileCount)
				sm.Predict(f, 4)
				sm.Degree(f, f+1)
				if i%1024 == 0 {
					sm.Stats() // full-footprint scan, kept off the hot loop
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := sm.Fed(), uint64(len(tr.Records)); got != want {
		t.Fatalf("fed %d records, counted %d", want, got)
	}
	if st := sm.Stats(); st.Lists == 0 || st.Correlators == 0 {
		t.Fatalf("no correlations mined under concurrency: %+v", st)
	}
}

// TestShardedConfig covers the knob's validation and plumbing.
func TestShardedConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = -1
	if cfg.Validate() == nil {
		t.Fatal("negative Shards accepted")
	}
	cfg.Shards = 6
	sm := NewSharded(cfg)
	if sm.Shards() != 6 {
		t.Fatalf("Shards() = %d, want 6", sm.Shards())
	}
	if sm.Config().Shards != 6 {
		t.Fatalf("Config().Shards = %d, want 6", sm.Config().Shards)
	}
	if NewSharded(DefaultConfig()).Shards() != 1 {
		t.Fatal("Shards = 0 should collapse to one partition")
	}
}

// TestShardedPartitionedEquivalence: the ensemble mines bit-identical state
// whatever deployment partitioner routes files to owners — the property the
// multi-MDS cluster's global miner is built on. Mined state is
// stripe-placement-independent, so the single-lock Model stays the reference.
func TestShardedPartitionedEquivalence(t *testing.T) {
	tr := shardTrace(t, 4000)
	single := New(DefaultConfig())
	single.FeedTrace(tr)
	for _, part := range []partition.Partitioner{partition.Hash, partition.Group} {
		sm := NewShardedPartitioned(DefaultConfig(), 3, part)
		if sm.Shards() != 3 {
			t.Fatalf("Shards() = %d, want 3", sm.Shards())
		}
		sm.FeedTraceParallel(tr)
		assertModelsEqual(t, tr, single, sm, 0)
		// Every file's state must live on exactly the shard the deployment
		// partitioner names (placement, not just content).
		for f := 0; f < tr.FileCount; f++ {
			id := trace.FileID(f)
			own := sm.Partitioner()(id, sm.Shards())
			if list := sm.Shard(own).CorrelatorList(id); len(list) != len(sm.CorrelatorList(id)) {
				t.Fatalf("file %d list not on owner %d", f, own)
			}
			for i := 0; i < sm.Shards(); i++ {
				if i != own && len(sm.Shard(i).CorrelatorList(id)) != 0 {
					t.Fatalf("file %d leaked state onto shard %d (owner %d)", f, i, own)
				}
			}
		}
	}
}

// TestShardedResetWindow verifies the stream-boundary reset stops credit
// from crossing the boundary, matching Model.ResetWindow.
func TestShardedResetWindow(t *testing.T) {
	tr := shardTrace(t, 3000)
	mid := len(tr.Records) / 2

	single := New(DefaultConfig())
	single.FeedTrace(&trace.Trace{Records: tr.Records[:mid], FileCount: tr.FileCount})
	single.ResetWindow()
	single.FeedTrace(&trace.Trace{Records: tr.Records[mid:], FileCount: tr.FileCount})

	cfg := DefaultConfig()
	cfg.Shards = 4
	sm := NewSharded(cfg)
	sm.FeedBatch(tr.Records[:mid])
	sm.ResetWindow()
	sm.FeedBatch(tr.Records[mid:])

	assertModelsEqual(t, tr, single, sm, 0)
}

// TestShardedEquivalenceUnnormalizedWindow pins the Graph.Window <= 0 case:
// both miners normalize the evaluation window the same way the graph
// normalizes its crediting window, so equivalence holds for every valid
// config, not just the defaults.
func TestShardedEquivalenceUnnormalizedWindow(t *testing.T) {
	tr := shardTrace(t, 3000)
	cfg := DefaultConfig()
	cfg.Graph.Window = 0 // Validate accepts this; normalization maps it to 3
	single := New(cfg)
	single.FeedTrace(tr)
	cfg.Shards = 4
	sm := NewSharded(cfg)
	sm.FeedTraceParallel(tr)
	assertModelsEqual(t, tr, single, sm, 0)
}
