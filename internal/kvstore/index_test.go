package kvstore

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The TestBTree* tests keep the names they had when the store's index was a
// B-tree; they check the hash index that replaced it, driven the way the
// store drives it.

func idxPut(x *index, k, v string) { x.apply(walPut, []byte(k), []byte(v)) }

func idxDelete(x *index, k string) { x.apply(walDelete, []byte(k), nil) }

func idxGet(x *index, k string) (string, bool) {
	i, ok := x.slots[k]
	if !ok {
		return "", false
	}
	return string(x.vals[i]), true
}

// idxKeys lists the keys in
// [from, to) ("" is an open bound), stopping after stop of them when stop > 0.
func idxKeys(x *index, from, to string, stop int) []string {
	bound := func(b string) []byte {
		if b == "" {
			return nil
		}
		return []byte(b)
	}
	var keys []string
	x.ascend(bound(from), bound(to), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return stop <= 0 || len(keys) < stop
	})
	return keys
}

func TestBTreeBasic(t *testing.T) {
	x := newIndex(0)
	for i := 0; i < 100; i++ {
		idxPut(x, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	if len(x.slots) != 100 {
		t.Fatalf("len = %d", len(x.slots))
	}
	for i := 0; i < 100; i++ {
		v, ok := idxGet(x, fmt.Sprintf("k%03d", i))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%03d = %q ok=%v", i, v, ok)
		}
	}
	if _, ok := idxGet(x, "missing"); ok {
		t.Fatal("phantom key")
	}
}

func TestBTreeOverwrite(t *testing.T) {
	x := newIndex(0)
	idxPut(x, "a", "1")
	idxPut(x, "a", "2")
	if len(x.slots) != 1 || len(x.vals) != 1 {
		t.Fatalf("overwrite took a new slot: %d keys, %d slots", len(x.slots), len(x.vals))
	}
	if v, _ := idxGet(x, "a"); v != "2" {
		t.Fatalf("value = %q", v)
	}
	if keys := idxKeys(x, "", "", 0); !slices.Equal(keys, []string{"a"}) {
		t.Fatalf("keys = %q", keys)
	}
}

func TestBTreeDelete(t *testing.T) {
	x := newIndex(0)
	keys := []string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		idxPut(x, k, "v")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		idxDelete(x, k)
		if _, ok := idxGet(x, k); ok {
			t.Fatalf("delete %q failed", k)
		}
		idxDelete(x, k)
		if len(x.free) != i+1 {
			t.Fatalf("double delete %q freed %d slots after %d deletes", k, len(x.free), i+1)
		}
		if len(x.slots) != len(keys)-i-1 {
			t.Fatalf("len = %d after %d deletes", len(x.slots), i+1)
		}
		// Remaining keys stay reachable.
		if i%37 == 0 {
			for _, rest := range keys[i+1:] {
				if _, ok := idxGet(x, rest); !ok {
					t.Fatalf("key %q lost after deleting %q", rest, k)
				}
			}
			if got := len(idxKeys(x, "", "", 0)); got != len(keys)-i-1 {
				t.Fatalf("ascend visits %d keys after %d deletes", got, i+1)
			}
		}
	}
}

func TestBTreeAscendRange(t *testing.T) {
	x := newIndex(0)
	for i := 0; i < 50; i++ {
		idxPut(x, fmt.Sprintf("k%02d", i), "")
	}
	want := []string{"k10", "k11", "k12", "k13", "k14"}
	if got := idxKeys(x, "k10", "k15", 0); !slices.Equal(got, want) {
		t.Fatalf("range scan = %v", got)
	}
	// A bound between keys: from rounds up, to stays exclusive.
	if got := idxKeys(x, "k09~", "k14~", 0); !slices.Equal(got, want) {
		t.Fatalf("range scan between keys = %v", got)
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	x := newIndex(0)
	for i := 0; i < 50; i++ {
		idxPut(x, fmt.Sprintf("k%02d", i), "")
	}
	n := 0
	x.ascend(nil, nil, func(k, v []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		x := newIndex(0)
		ref := map[string]string{}
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%02d", rng.IntN(60))
			switch rng.IntN(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", i)
				idxPut(x, k, v)
				ref[k] = v
			case 2:
				idxDelete(x, k)
				delete(ref, k)
			}
		}
		if len(x.slots) != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := idxGet(x, k)
			if !ok || got != v {
				return false
			}
		}
		keys := idxKeys(x, "", "", 0)
		return sort.StringsAreSorted(keys) && len(keys) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
