// Package kvstore is the metadata store behind the simulated MDS — the role
// Berkeley DB plays in the HUSt prototype (paper §5.1: "The metadata
// information of files and objects are stored in the Berkeley DB"). It
// offers an ordered key space (in-memory B-tree), a write-ahead log with CRC
// framing for durability, and point-in-time snapshots, which is the slice of
// Berkeley DB behaviour the experiments depend on.
package kvstore

import "bytes"

// btree is a classic in-memory B-tree over []byte keys with copy-on-insert
// leaves. Degree t: every node except the root holds between t-1 and 2t-1
// keys.
type btree struct {
	root *bnode
	t    int
	size int
}

type item struct {
	key   []byte
	value []byte
}

type bnode struct {
	items    []item
	children []*bnode // nil for leaves
}

func newBTree(degree int) *btree {
	if degree < 2 {
		degree = 32
	}
	return &btree{root: &bnode{}, t: degree}
}

func (n *bnode) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item >= key and whether it is an exact
// match.
func (n *bnode) find(key []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(n.items[mid].key, key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true // keys in a node are distinct
		}
	}
	return lo, false
}

// lookup returns key's item, or nil.
func (t *btree) lookup(key []byte) *item {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return &n.items[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Get returns the value for key, or nil, false.
func (t *btree) Get(key []byte) ([]byte, bool) {
	if it := t.lookup(key); it != nil {
		return it.value, true
	}
	return nil, false
}

// Put inserts or replaces. It reports whether the key was new. A
// replacement swaps the value in place: only an insert splits nodes, and
// only an insert copies the key.
func (t *btree) Put(key, value []byte) bool {
	if it := t.lookup(key); it != nil {
		it.value = value
		return false
	}
	if len(t.root.items) == 2*t.t-1 {
		old := t.root
		t.root = &bnode{children: []*bnode{old}}
		t.root.split(0, t.t)
	}
	t.root.insert(key, value, t.t)
	t.size++
	return true
}

// split divides child i of n around its median.
func (n *bnode) split(i, t int) {
	child := n.children[i]
	mid := t - 1
	median := child.items[mid]
	right := &bnode{items: append([]item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*bnode(nil), child.children[t:]...)
		child.children = child.children[:t]
	}
	child.items = child.items[:mid]
	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert adds key, which the tree does not hold, below n, which is not
// full, splitting each full child on the way down.
func (n *bnode) insert(key, value []byte, t int) {
	for {
		i, _ := n.find(key)
		if n.leaf() {
			n.items = append(n.items, item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item{key: append([]byte(nil), key...), value: value}
			return
		}
		if len(n.children[i].items) == 2*t-1 {
			n.split(i, t)
			if bytes.Compare(key, n.items[i].key) > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key, reporting whether it was present. For simplicity it
// uses lazy deletion by tombstoning: the item is removed from the node with
// standard B-tree rebalancing omitted in favour of a rebuild threshold —
// but a full rebalancing delete is implemented below to keep scans O(log n).
func (t *btree) Delete(key []byte) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(key, t.t)
	if deleted {
		t.size--
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return deleted
}

func (n *bnode) delete(key []byte, t int) bool {
	i, ok := n.find(key)
	if ok {
		if n.leaf() {
			n.items = append(n.items[:i], n.items[i+1:]...)
			return true
		}
		// Replace with predecessor from the left subtree (growing it first
		// if minimal).
		if len(n.children[i].items) >= t {
			pred := n.children[i].max()
			n.items[i] = pred
			return n.children[i].delete(pred.key, t)
		}
		if len(n.children[i+1].items) >= t {
			succ := n.children[i+1].min()
			n.items[i] = succ
			return n.children[i+1].delete(succ.key, t)
		}
		n.merge(i)
		return n.children[i].delete(key, t)
	}
	if n.leaf() {
		return false
	}
	// Ensure the child we descend into has >= t items.
	if len(n.children[i].items) < t {
		n.fill(i, t)
		// fill may have merged children; re-find.
		i, ok = n.find(key)
		if ok {
			return n.delete(key, t)
		}
		if i > len(n.children)-1 {
			i = len(n.children) - 1
		}
	}
	return n.children[i].delete(key, t)
}

func (n *bnode) min() item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (n *bnode) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// fill grows child i to at least t items by borrowing or merging.
func (n *bnode) fill(i, t int) {
	switch {
	case i > 0 && len(n.children[i-1].items) >= t:
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = append([]item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*bnode{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) >= t:
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
	case i < len(n.children)-1:
		n.merge(i)
	default:
		n.merge(i - 1)
	}
}

// merge folds child i+1 and separator i into child i.
func (n *bnode) merge(i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	child.children = append(child.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Len reports the number of keys.
func (t *btree) Len() int { return t.size }

// Ascend visits keys in [from, to) in order (nil bounds are open) until fn
// returns false.
func (t *btree) Ascend(from, to []byte, fn func(key, value []byte) bool) {
	t.root.ascend(from, to, fn)
}

func (n *bnode) ascend(from, to []byte, fn func(key, value []byte) bool) bool {
	start := 0
	if from != nil {
		start, _ = n.find(from)
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(from, to, fn) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		k := n.items[i].key
		if from != nil && bytes.Compare(k, from) < 0 {
			continue
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			return false
		}
		if !fn(k, n.items[i].value) {
			return false
		}
	}
	return true
}
