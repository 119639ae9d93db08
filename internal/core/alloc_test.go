package core

import (
	"testing"

	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/tracegen"
)

// The allocation gate: the steady-state mining path allocates nothing per
// record (a stored vector's scalars are its extractor's interned list) and a
// sharded batch allocates per call, not per record or event. A change that
// puts a per-record allocation back fails here instead of showing up later
// as a slower ledger row.

func TestFeedAllocsPerRecord(t *testing.T) {
	tr := tracegen.HP(20000).MustGenerate()
	for _, dirty := range []bool{false, true} {
		m := NewSharded(DefaultConfig()) // one shard: Model.Feed behind the dispatch lock
		m.FeedBatch(tr.Records)          // warm: every file tracked, every list and edge table grown
		if dirty {
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
		perRecord := testing.AllocsPerRun(len(tr.Records), func() {
			m.Feed(&tr.Records[i%len(tr.Records)])
			i++
		})
		t.Logf("dirty tracking %v: %.2f allocs/record", dirty, perRecord)
		if perRecord > 0 {
			t.Errorf("dirty tracking %v: Model.Feed allocates %.2f times per record at steady state, want 0", dirty, perRecord)
		}
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
