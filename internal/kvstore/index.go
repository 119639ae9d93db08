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
	slots   map[string]int32
	vals    [][]byte
	free    []int32 // slots a delete emptied
	touched byte    // sums what applyFrames loads ahead, to keep the loads
}

// newIndex returns an empty index with room for n keys.
func newIndex(n int) *index {
	return &index{slots: make(map[string]int32, n), vals: make([][]byte, 0, n)}
}

// apply applies a walPut or walDelete record, keeping the value as it is: a
// reader's fresh record, or a slice of a replaced store's staged frames.
func (x *index) apply(op walOp, key, value []byte) {
	if op == walDelete {
		x.del(key)
		return
	}
	x.vals[x.slot(key)] = value
}

// slot returns key's slot, giving a new key one.
func (x *index) slot(key []byte) int32 {
	if i, ok := x.slots[string(key)]; ok {
		return i
	}
	return x.add(string(key))
}

const applyBlock = 64 // puts applyFrames resolves ahead: a constant, not a knob

// applyFrames applies walPut and walDelete frames in order, a slot copying its
// value over its old bytes when they fit, and counts them in stats. Up to
// applyBlock puts at a time, it resolves their slots in frame order, loads
// each slot's old value, then copies the values in frame order, so a block's
// misses are waited for together. A delete ends a block: no put before it may
// write after it.
func (x *index) applyFrames(frames []byte, stats *WriteStats) {
	var slots [applyBlock]int32
	var vals [applyBlock][]byte
	for len(frames) > 0 {
		n := 0
		for ; n < applyBlock && len(frames) > 0 && walOp(frames[4]) == walPut; n++ {
			_, key, value, rest := nextFrame(frames)
			slots[n], vals[n], frames = x.slot(key), value, rest
			stats.count(walPut, key, value)
		}
		for _, i := range slots[:n] {
			if old := x.vals[i]; len(old) > 0 {
				x.touched += old[0]
			}
		}
		for j, i := range slots[:n] {
			if old := x.vals[i]; cap(old) >= len(vals[j]) {
				x.vals[i] = append(old[:0], vals[j]...)
			} else {
				x.vals[i] = append([]byte(nil), vals[j]...)
			}
		}
		if n == 0 { // a delete
			var key []byte
			_, key, _, frames = nextFrame(frames)
			x.del(key)
			stats.count(walDelete, key, nil)
		}
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
