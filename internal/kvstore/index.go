package kvstore

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
)

// index is the store's key space: a hash from key to a slot of vals. It keeps
// no key order: the ordered reads (Scan, Compact) sort the keys they visit
// when they run. An overwrite keeps its slot and, when the new value fits,
// the old value's bytes.
type index struct {
	slots map[string]int32
	vals  [][]byte
	free  []int32 // slots a delete emptied
}

// newIndex returns an empty index with room for n keys.
func newIndex(n int) *index {
	return &index{slots: make(map[string]int32, n), vals: make([][]byte, 0, n)}
}

// apply applies a walPut or walDelete record. With owned, a put's value is
// the caller's to give away (a reader's fresh record, a slice of a replaced
// store's staged frames) and is kept as it is; otherwise the slot keeps a
// copy, written over its old bytes when they fit.
func (x *index) apply(op walOp, key, value []byte, owned bool) {
	if op == walDelete {
		x.del(key)
		return
	}
	i, ok := x.slots[string(key)]
	if !ok {
		i = x.add(string(key))
	}
	switch old := x.vals[i]; {
	case owned:
		x.vals[i] = value
	case cap(old) >= len(value):
		x.vals[i] = append(old[:0], value...)
	default:
		x.vals[i] = append([]byte(nil), value...)
	}
}

// add gives a new key a slot, a freed one first.
func (x *index) add(key string) int32 {
	i := int32(len(x.vals))
	if n := len(x.free); n > 0 {
		i, x.free = x.free[n-1], x.free[:n-1]
	} else {
		x.vals = append(grow(x.vals), nil)
	}
	x.slots[key] = i
	return i
}

// grow doubles a full s. append grows a large slice a quarter at a time,
// which allocates about five times the final size of an index built one key
// at a time (a recovering log); doubling allocates about twice.
func grow[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s)+1)
}

func (x *index) del(key []byte) {
	if i, ok := x.slots[string(key)]; ok {
		delete(x.slots, string(key))
		x.vals[i] = nil
		x.free = append(x.free, i)
	}
}

// ascend visits keys in [from, to) in order (nil bounds are open) until fn
// returns false, sorting the keys in range first. fn sees a scratch copy of
// the key and the index's own value bytes, and keeps neither. It only reads
// the index, so a read lock on the store is enough.
func (x *index) ascend(from, to []byte, fn func(key, value []byte) bool) {
	type entry struct {
		head uint64 // the key's first eight bytes, big-endian, zeros past its end
		key  string
		slot int32
	}
	lo, hi := string(from), string(to)
	keys := make([]entry, 0, len(x.slots))
	for k, i := range x.slots {
		if k >= lo && (to == nil || k < hi) {
			var head [8]byte
			copy(head[:], k)
			keys = append(keys, entry{binary.BigEndian.Uint64(head[:]), k, i})
		}
	}
	// Heads order keys as their bytes do; only keys whose heads tie need the
	// bytes compared.
	slices.SortFunc(keys, func(a, b entry) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		return strings.Compare(a.key, b.key)
	})
	var scratch []byte
	for _, e := range keys {
		scratch = append(scratch[:0], e.key...)
		if !fn(scratch, x.vals[e.slot]) {
			return
		}
	}
}
