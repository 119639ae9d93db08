package core

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"

	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// fuzzKeys are the six kinds of store value, one key each, all present in
// goldenStore so that replacing any one leaves an otherwise loadable store.
var fuzzKeys = [...][]byte{
	key(keyPrefixList, 1), key(keyPrefixVector, 1), key(keyPrefixGraph, 1),
	[]byte(keyConfig), []byte(keyWindow), []byte(keyEpoch),
}

// allocatedBy reports the heap bytes allocated while f ran. The counter is
// process-wide, so a reading over limit is taken again: another goroutine's
// burst does not repeat, a decoder that believes a hostile count does.
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

// FuzzStoreValues puts an arbitrary value under one of the six store keys of
// an otherwise honest checkpoint and takes the path a hostile catch-up
// snapshot takes: StoreFingerprint, then LoadMerged. Neither may panic nor
// allocate out of proportion to the value; a value the load accepts must be
// what a save of the loaded model writes back (decoders accept exactly one
// encoding); and the three per-file decoders round-trip whatever they take.
func FuzzStoreValues(f *testing.F) {
	for _, kv := range goldenStore {
		for kind, k := range fuzzKeys {
			if bytes.HasPrefix(mustUnhex(f, kv[0]), k[:2]) {
				f.Add(uint8(kind), mustUnhex(f, kv[1]))
			}
		}
	}
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(2), append(make([]byte, 8), 0, 0, 0, 0x40))
	// Values no miner writes, which mined on would put a NaN in a list: a
	// node whose total is +Inf, one lighter than its edge, a NaN weight, a
	// negative one; and a list that already holds a NaN degree.
	for _, node := range []graph.Node{
		{Total: math.Inf(1), Edges: []graph.Edge{{To: 2, Weight: math.Inf(1)}}},
		{Total: 5e-324, Edges: []graph.Edge{{To: 2, Weight: 1e308}}},
		{Total: 1, Edges: []graph.Edge{{To: 2, Weight: math.NaN()}}},
		{Total: 1, Edges: []graph.Edge{{To: 2, Weight: -1}}},
	} {
		f.Add(uint8(2), appendGraphValue(nil, node.Total, node.Edges))
	}
	f.Add(uint8(0), AppendCorrelators(nil, []Correlator{{File: 2, Degree: math.NaN(), Sim: 1, Freq: math.NaN()}}))

	f.Fuzz(func(t *testing.T, kind uint8, val []byte) {
		if list, err := decodeList(val); err == nil && !bytes.Equal(AppendCorrelators(nil, list), val) {
			t.Fatalf("decodeList accepted %x but it re-encodes differently", val)
		}
		if v, err := decodeVector(val); err == nil && !bytes.Equal(vsm.AppendVector(nil, &v), val) {
			t.Fatalf("decodeVector accepted %x but it re-encodes differently", val)
		}
		if total, edges, err := decodeGraphNode(val); err == nil && !bytes.Equal(appendGraphValue(nil, total, edges), val) {
			t.Fatalf("decodeGraphNode accepted %x but it re-encodes differently", val)
		}

		k := fuzzKeys[int(kind)%len(fuzzKeys)]
		st, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, kv := range goldenStore {
			if err := st.Put(mustUnhex(t, kv[0]), mustUnhex(t, kv[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(k, val); err != nil {
			t.Fatal(err)
		}
		// An honest load of this store allocates ~10 KB.
		var ferr, lerr error
		var sm *ShardedModel
		limit := 64*uint64(len(val)) + 1<<20
		grew := allocatedBy(limit, func() {
			_, ferr = StoreFingerprint(st, 0x0305)
			sm = NewSharded(goldenConfig())
			lerr = sm.LoadMerged(st)
		})
		if grew > limit {
			t.Fatalf("loading a %d-byte value under %q allocated %d bytes", len(val), k, grew)
		}
		if ferr != nil && lerr == nil && !bytes.HasPrefix(k, []byte("m/")) {
			t.Fatalf("LoadMerged installed a %q the fingerprint pass refused: %v", k, ferr)
		}
		if lerr != nil {
			return
		}
		out, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if err := sm.SaveMerged(out); err != nil {
			t.Fatal(err)
		}
		got, _ := out.Get(k)
		switch string(k) {
		case keyEpoch: // a fresh store starts its own epoch count
		case keyWindow: // a load keeps the window's tail
			w, _ := readWindow(st)
			if max := goldenConfig().Graph.Normalized().Window; len(w) > max {
				w = w[len(w)-max:]
			}
			if want := trace.AppendFileIDs(nil, w); !bytes.Equal(got, want) {
				t.Fatalf("window %x loaded, saved back as %x, want %x", val, got, want)
			}
		default:
			if !bytes.Equal(got, val) {
				t.Fatalf("%q = %x loaded, but the loaded model saves %x", k, val, got)
			}
		}
		// Mining on over whatever was loaded keeps every list ranked.
		sm.FeedBatch(goldenRecords())
		for _, r := range goldenRecords() {
			for _, c := range sm.CorrelatorList(r.File) {
				for _, x := range [...]float64{c.Degree, c.Sim, c.Freq} {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("%q = %x loaded and mined on: list of %d holds %+v", k, val, r.File, c)
					}
				}
			}
		}
	})
}
