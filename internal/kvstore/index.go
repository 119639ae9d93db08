package kvstore

import (
	"slices"
	"strings"
)

// index is the store's key space: a hash from key to a slot of vals, and the
// keys in order for the ordered reads. A point write never pays for the
// order: an overwrite keeps its slot and, when the new value fits, the old
// value's bytes; only adding or removing a key makes the order stale, and the
// next ordered read rebuilds it.
type index struct {
	slots map[string]int32
	vals  [][]byte
	free  []int32 // slots a delete emptied
	// sorted holds every key in order with its slot; nil when stale. A key
	// past the last one extends it, so a log written in key order (a
	// compacted one) recovers already sorted.
	sorted []sortedKey
}

type sortedKey struct {
	key  string
	slot int32
}

func newIndex() *index {
	return &index{slots: make(map[string]int32), sorted: []sortedKey{}}
}

// apply applies a walPut or walDelete record. With owned, a put's value is
// the caller's to give away (a reader's fresh record) and is kept as it is;
// otherwise the slot keeps a copy, written over its old bytes when they fit.
func (x *index) apply(op walOp, key, value []byte, owned bool) {
	if op == walDelete {
		x.del(key)
		return
	}
	// A key past the last of a fresh order is new without a lookup: a log
	// written in key order recovers with one hash per key.
	n := len(x.sorted)
	last := x.sorted != nil && (n == 0 || x.sorted[n-1].key < string(key))
	i, ok := int32(0), false
	if !last {
		i, ok = x.slots[string(key)]
	}
	if !ok {
		i = x.add(string(key), last)
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

// add gives a new key a slot, a freed one first. A key past the last one
// (last) extends a fresh order; any other makes it stale.
func (x *index) add(key string, last bool) int32 {
	i := int32(len(x.vals))
	if n := len(x.free); n > 0 {
		i, x.free = x.free[n-1], x.free[:n-1]
	} else {
		x.vals = append(grow(x.vals), nil)
	}
	x.slots[key] = i
	if last {
		x.sorted = append(grow(x.sorted), sortedKey{key, i})
	} else {
		x.sorted = nil
	}
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
		x.sorted = nil
	}
}

// sort rebuilds a stale key order. It writes the index, so its caller holds
// the store's write lock.
func (x *index) sort() {
	if x.sorted != nil {
		return
	}
	x.sorted = make([]sortedKey, 0, len(x.slots))
	for k, i := range x.slots {
		x.sorted = append(x.sorted, sortedKey{k, i})
	}
	slices.SortFunc(x.sorted, func(a, b sortedKey) int { return strings.Compare(a.key, b.key) })
}

// ascend visits keys in [from, to) in order (nil bounds are open) until fn
// returns false; the order must be fresh. fn sees a scratch copy of the key
// and the index's own value bytes, and keeps neither.
func (x *index) ascend(from, to []byte, fn func(key, value []byte) bool) {
	keys, hi := x.sorted, string(to)
	if from != nil {
		lo, _ := slices.BinarySearchFunc(keys, string(from), func(e sortedKey, k string) int { return strings.Compare(e.key, k) })
		keys = keys[lo:]
	}
	var scratch []byte
	for _, e := range keys {
		if to != nil && e.key >= hi {
			return
		}
		scratch = append(scratch[:0], e.key...)
		if !fn(scratch, x.vals[e.slot]) {
			return
		}
	}
}
