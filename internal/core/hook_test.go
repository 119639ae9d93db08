package core

import (
	"sync"
	"testing"

	"farmer/internal/partition"
	"farmer/internal/trace"
)

type hookEvent struct {
	seq  uint64
	file trace.FileID
}

// TestIngestHookOrderedDelivery checks the hook's contract: every ingested
// record reaches it exactly once, after its shard installed it, and the calls
// for one shard come in global stream order — through both the streaming
// Feed path and the batch path.
func TestIngestHookOrderedDelivery(t *testing.T) {
	tr := shardTrace(t, 3000)
	for _, shards := range []int{1, 4} {
		for _, batch := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			sm := NewSharded(cfg)
			var mu sync.Mutex
			got := make([][]hookEvent, shards)
			sm.SetIngestHook(func(seq uint64, f trace.FileID) {
				sh := partition.Stripe(f, shards)
				if _, ok := sm.Shard(sh).Vector(f); !ok {
					t.Errorf("record %d: hook ran before file %d's vector was installed", seq, f)
				}
				mu.Lock()
				got[sh] = append(got[sh], hookEvent{seq, f})
				mu.Unlock()
			})
			if batch {
				sm.FeedTraceParallel(tr)
			} else {
				for i := range tr.Records {
					sm.Feed(&tr.Records[i])
				}
			}
			want := make([][]hookEvent, shards)
			for i := range tr.Records {
				f := tr.Records[i].File
				sh := partition.Stripe(f, shards)
				want[sh] = append(want[sh], hookEvent{uint64(i + 1), f})
			}
			for sh := 0; sh < shards; sh++ {
				if len(got[sh]) != len(want[sh]) {
					t.Fatalf("shards=%d batch=%v shard %d: %d calls, want %d",
						shards, batch, sh, len(got[sh]), len(want[sh]))
				}
				for i := range got[sh] {
					if got[sh][i] != want[sh][i] {
						t.Fatalf("shards=%d batch=%v shard %d call %d: %+v, want %+v",
							shards, batch, sh, i, got[sh][i], want[sh][i])
					}
				}
			}
		}
	}
}

// TestIngestHookConcurrentFeedSingleShard hammers the Shards=1 streaming path
// from many goroutines with a hook set: every record reaches it once, in
// strictly increasing sequence (dmu serializes sequencing and the hook).
func TestIngestHookConcurrentFeedSingleShard(t *testing.T) {
	tr := shardTrace(t, 2000)
	cfg := DefaultConfig()
	cfg.Shards = 1
	sm := NewSharded(cfg)
	var seqs []uint64 // appended under dmu
	sm.SetIngestHook(func(seq uint64, _ trace.FileID) { seqs = append(seqs, seq) })

	const feeders = 4
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(tr.Records); i += feeders {
				sm.Feed(&tr.Records[i])
			}
		}(g)
	}
	wg.Wait()
	sm.SetIngestHook(nil)

	if len(seqs) != len(tr.Records) {
		t.Fatalf("hook saw %d records, want %d", len(seqs), len(tr.Records))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence not strictly increasing at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

// TestIngestHookClearedUnderIngest clears the hook while another goroutine
// ingests batches (under -race this exercises the dmu handshake): a batch is
// seen whole or not at all, and ingestion goes on unobserved afterwards.
func TestIngestHookClearedUnderIngest(t *testing.T) {
	tr := shardTrace(t, 5000)
	cfg := DefaultConfig()
	cfg.Shards = 4
	sm := NewSharded(cfg)
	var mu sync.Mutex
	seen := 0
	first := make(chan struct{})
	var once sync.Once
	sm.SetIngestHook(func(uint64, trace.FileID) {
		mu.Lock()
		seen++
		mu.Unlock()
		once.Do(func() { close(first) })
	})
	const chunk = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(tr.Records); lo += chunk {
			sm.FeedBatch(tr.Records[lo : lo+chunk])
		}
	}()
	<-first
	sm.SetIngestHook(nil)
	<-done

	if seen == 0 || seen%chunk != 0 {
		t.Fatalf("hook saw %d records: not a whole number of %d-record batches", seen, chunk)
	}
	if sm.Fed() != uint64(len(tr.Records)) {
		t.Fatalf("fed = %d, want %d", sm.Fed(), len(tr.Records))
	}
}
