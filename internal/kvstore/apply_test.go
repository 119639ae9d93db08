package kvstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// batchOp is one staged record of a batch: a put of val under key, or with
// del a delete of key.
type batchOp struct {
	del bool
	key string
	val []byte
}

// oneByOne commits ops to s the way a batch's commit applied them before it
// applied blocks, and a lone Put or Delete did: one frame at a time, each
// put's value copied over its slot's old bytes when they fit. It is the
// oracle applyFrames is checked against.
func oneByOne(s *Store, ops []batchOp) {
	var b Batch
	stageOps(&b, ops)
	x := s.idx
	for frames := b.buf; len(frames) > 0; {
		var op walOp
		var key, value []byte
		op, key, value, frames = nextFrame(frames)
		s.stats.count(op, key, value)
		if op == walDelete {
			x.del(key)
			continue
		}
		if i := x.slot(key); cap(x.vals[i]) >= len(value) {
			x.vals[i] = append(x.vals[i][:0], value...)
		} else {
			x.vals[i] = append([]byte(nil), value...)
		}
	}
}

func stageOps(b *Batch, ops []batchOp) error {
	for _, op := range ops {
		var err error
		if op.del {
			err = b.Delete([]byte(op.key))
		} else {
			err = b.Put([]byte(op.key), op.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sameIndex reports how two indexes differ, slot by slot: keys and their
// slots, the free list, and each slot's value — its bytes, whether a freed
// slot still holds one, and its capacity, which decides whether the next value
// is copied over it or into a new allocation.
func sameIndex(got, want *index) error {
	if !maps.Equal(got.slots, want.slots) {
		return fmt.Errorf("slots %v, want %v", got.slots, want.slots)
	}
	if !slices.Equal(got.free, want.free) {
		return fmt.Errorf("free list %v, want %v", got.free, want.free)
	}
	if len(got.vals) != len(want.vals) {
		return fmt.Errorf("%d slots, want %d", len(got.vals), len(want.vals))
	}
	for i, g := range got.vals {
		w := want.vals[i]
		if (g == nil) != (w == nil) || cap(g) != cap(w) || !bytes.Equal(g, w) {
			return fmt.Errorf("slot %d holds %q (cap %d, nil %v), want %q (cap %d, nil %v)", i, g, cap(g), g == nil, w, cap(w), w == nil)
		}
	}
	return nil
}

// checkBlockedApply commits each batch to one store through Batch and to
// another through oneByOne, and fails at the first commit after which the two
// differ in Scan, Len, WriteStats or their indexes.
func checkBlockedApply(t *testing.T, batches [][]batchOp) {
	t.Helper()
	got, want := &Store{idx: newIndex(0)}, &Store{idx: newIndex(0)}
	for n, ops := range batches {
		if err := got.Batch(func(b *Batch) error { return stageOps(b, ops) }); err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		oneByOne(want, ops)
		if g, w := contents(got), contents(want); !slices.Equal(g, w) {
			t.Fatalf("batch %d: Scan %q, want %q", n, g, w)
		}
		if g, w := got.Len(), want.Len(); g != w {
			t.Fatalf("batch %d: Len %d, want %d", n, g, w)
		}
		if g, w := got.WriteStats(), want.WriteStats(); g != w {
			t.Fatalf("batch %d: WriteStats %+v, want %+v", n, g, w)
		}
		if err := sameIndex(got.idx, want.idx); err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
	}
}

// TestBatchApplyMatchesOneByOne: a commit that resolves a block of puts before
// it copies their values leaves the store exactly as applying its frames one
// at a time does. The batches come from a few dozen keys, so keys repeat
// inside a block and across blocks; values grow past their slot's capacity
// and shrink; deletes free slots that later keys take, in the same batch and
// the next; and runs of puts cross applyBlock.
func TestBatchApplyMatchesOneByOne(t *testing.T) {
	for seed := range uint64(40) {
		rng := rand.New(rand.NewPCG(seed, 47))
		batches := make([][]batchOp, 12)
		for n := range batches {
			ops := make([]batchOp, rng.IntN(3*applyBlock))
			deletes := rng.IntN(4) // 0: a batch of puts alone
			for i := range ops {
				ops[i] = batchOp{
					del: deletes > 0 && rng.IntN(12) < deletes,
					key: fmt.Sprintf("k%02d", rng.IntN(40)),
					val: bytes.Repeat([]byte{byte('a' + i%26)}, rng.IntN(120)),
				}
			}
			batches[n] = ops
		}
		checkBlockedApply(t, batches)
	}
}

// FuzzBatchApply is TestBatchApplyMatchesOneByOne over arbitrary batches.
// Each op takes two bytes: the first picks a delete (below 32), the end of
// the batch (255) or a put, and one of 16 keys; the second is the put's value
// length.
func FuzzBatchApply(f *testing.F) {
	f.Add([]byte{64, 10, 65, 200, 0, 0, 64, 3, 255, 0, 66, 5})
	f.Add(bytes.Repeat([]byte{70, 40, 71, 90, 3, 0}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		batches := [][]batchOp{nil}
		for i := 0; i+1 < len(data); i += 2 {
			if data[i] == 255 {
				batches = append(batches, nil)
				continue
			}
			op := batchOp{
				del: data[i] < 32,
				key: fmt.Sprintf("k%d", data[i]%16),
				val: bytes.Repeat([]byte{data[i]}, int(data[i+1])),
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], op)
		}
		checkBlockedApply(t, batches)
	})
}
