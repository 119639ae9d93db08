package core

// A save writes each node's edges in id order, by a gather where the node
// remembers that order, without moving them in its live table, and writes
// the bytes a sort wrote.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// TestDeltaChainMatchesParent: a full save and two deltas of a two-shard
// FeedBatch over HP leave a store whose every record, and whose reloaded
// state fingerprint, are those of the commit before nodes remembered their
// id order: a gathered node writes the bytes a sorted one did.
func TestDeltaChainMatchesParent(t *testing.T) {
	// Measured at commit 4126789; a mismatch means the bytes moved, so never
	// regenerate them.
	const (
		parentStore       = 0xe1631e7d093c6796
		parentFingerprint = 0x15aa3d41bee2590f
	)
	tr := tracegen.HP(9000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	third := len(tr.Records) / 3
	sm.FeedBatch(tr.Records[:third])
	if err := sm.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][]trace.Record{tr.Records[third : 2*third], tr.Records[2*third:]} {
		sm.FeedBatch(seg)
		if inc, err := sm.SaveCheckpoint(st); err != nil || !inc {
			t.Fatalf("delta: incremental=%v, %v", inc, err)
		}
	}
	h := fnv.New64a()
	for _, kv := range storeContents(st) {
		h.Write([]byte(kv[0] + "=" + kv[1] + "\n"))
	}
	reloaded := NewSharded(cfg)
	if err := reloaded.LoadMerged(st); err != nil {
		t.Fatal(err)
	}
	fc := sm.TrackedFileCount()
	live, fp := StateFingerprint(sm, fc), StateFingerprint(reloaded, fc)
	if fp != live {
		t.Fatalf("reloaded fingerprint %#x, live %#x", fp, live)
	}
	if got := h.Sum64(); got != parentStore || fp != parentFingerprint {
		t.Fatalf("store hashes to %#x, reloaded fingerprint %#x; the parent's are %#x and %#x", got, fp, uint64(parentStore), uint64(parentFingerprint))
	}
}

// TestSaveKeepsEdgeSlotOrder: neither a full save nor a delta moves an edge
// in a node's live table: a save writes the id order, mining keeps insertion
// order.
func TestSaveKeepsEdgeSlotOrder(t *testing.T) {
	tr := tracegen.HP(12000).MustGenerate()
	cfg := DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	cfg.Shards = 2
	sm := NewSharded(cfg)
	st, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	slots := func() map[trace.FileID][]graph.Edge {
		out := map[trace.FileID][]graph.Edge{}
		for _, m := range sm.shards {
			for f, fp := range m.files {
				out[f] = slices.Clone(fp.node.Edges)
			}
		}
		return out
	}
	check := func(name string, save func() error) {
		t.Helper()
		before := slots()
		if err := save(); err != nil {
			t.Fatal(err)
		}
		after, unordered := slots(), 0
		for f, edges := range before {
			if !slices.EqualFunc(after[f], edges, func(a, b graph.Edge) bool { return a.To == b.To && a.Weight == b.Weight }) {
				t.Fatalf("%s moved the edges of %d: %+v, were %+v", name, f, after[f], edges)
			}
			if !slices.IsSortedFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) }) {
				unordered++
			}
		}
		if unordered == 0 {
			t.Fatalf("%s: no node holds its edges out of id order; the test shows nothing", name)
		}
	}
	half := len(tr.Records) / 2
	sm.FeedBatch(tr.Records[:half])
	check("a full save", func() error { return sm.SaveMerged(st) })
	sm.FeedBatch(tr.Records[half:])
	check("a delta", func() error {
		if inc, err := sm.SaveCheckpoint(st); err != nil || !inc {
			return fmt.Errorf("delta: incremental=%v, %v", inc, err)
		}
		return nil
	})
}
