package graph

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"farmer/internal/trace"
)

// refAdd is Node.Add as it was before a full node remembered its eviction
// victim: it scans for the minimum on every miss. The oracle for the
// remembered slot. It writes Edges directly, behind the remembered id order's
// back, so a node it builds never goes through SortedByID.
func refAdd(n *Node, to trace.FileID, w float64, maxSuccessors int) int {
	n.Total += w
	if i := n.Find(to); i >= 0 {
		n.Edges[i].Weight += w
		return i
	}
	if maxSuccessors <= 0 || len(n.Edges) < maxSuccessors {
		n.Edges = append(n.Edges, Edge{To: to, Weight: w})
		return len(n.Edges) - 1
	}
	victim := 0
	for i := 1; i < len(n.Edges); i++ {
		e, v := &n.Edges[i], &n.Edges[victim]
		if e.Weight < v.Weight || (e.Weight == v.Weight && e.To < v.To) {
			victim = i
		}
	}
	if w > n.Edges[victim].Weight {
		n.Edges[victim] = Edge{To: to, Weight: w}
		return victim
	}
	return -1
}

// byID is an independent sort: a clone of the node's edges in id order.
func byID(n *Node) []Edge {
	edges := slices.Clone(n.Edges)
	slices.SortFunc(edges, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return edges
}

func sameEdges(a, b []Edge) bool {
	return slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.To == y.To && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// sameNode compares two nodes as a checkpoint would see them: the total and
// the edges in id order, floats to the bit.
func sameNode(a, b *Node) bool {
	return math.Float64bits(a.Total) == math.Float64bits(b.Total) && sameEdges(byID(a), byID(b))
}

// FuzzNodeAddMatchesReference drives Add from a byte string: the first byte
// picks maxSuccessors from {1, 3, 64}, then each pair of bytes is one
// Add(to, w) over an id space a little larger than the table, with w a small
// multiple of a half so that ties and credits no stronger than the victim
// are common. After every op the node's SortedByID must equal an independent
// sort of its edges — the remembered id order kept across credits, dropped
// by an append or a replacement (which keeps the length) — and must leave
// the slots as they were. A 0xff in the id position sends the node through
// SortedByID into a fresh Node — what LoadMerged does — which must forget
// the victim.
func FuzzNodeAddMatchesReference(f *testing.F) {
	for i, max := range []byte{0, 1, 2} {
		rng := rand.New(rand.NewPCG(uint64(i), 21))
		seed := []byte{max}
		for op := 0; op < 400; op++ {
			seed = append(seed, byte(rng.IntN(256)), byte(rng.IntN(256)))
		}
		f.Add(seed)
	}
	f.Add([]byte{1, 0, 2, 1, 0, 2, 4, 3, 0, 1, 1, 3, 1, 0xff, 0, 4, 5, 5, 0}) // fill 3, refuse, credit the victim, refuse on a tie, reload, evict, refuse
	f.Add([]byte{0, 0, 0, 1, 0, 0xff, 0, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		max := []int{1, 3, 64}[data[0]%3]
		ids := max + 3
		var got, want Node
		for op := 1; op+1 < len(data); op += 2 {
			if data[op] == 0xff {
				got = Node{Total: got.Total, Edges: got.SortedByID(nil)}
				want = Node{Total: want.Total, Edges: byID(&want)}
				continue
			}
			to, w := trace.FileID(int(data[op])%ids), float64(1+data[op+1]%6)/2
			g, r := got.Add(to, w, max), refAdd(&want, to, w, max)
			if (g < 0) != (r < 0) || (g >= 0 && !sameEdges(got.Edges[g:g+1], want.Edges[r:r+1])) || !sameNode(&got, &want) {
				t.Fatalf("max=%d op %d Add(%d, %v): slot %d %+v, reference slot %d %+v", max, op/2, to, w, g, got, r, want)
			}
			slots := slices.Clone(got.Edges)
			if sorted := got.SortedByID(nil); !plain(sorted) || !sameEdges(sorted, byID(&got)) || !sameEdges(got.Edges, slots) {
				t.Fatalf("max=%d op %d Add(%d, %v): SortedByID %+v of %+v, want plain copies of %+v and the slots unmoved", max, op/2, to, w, sorted, slots, byID(&got))
			}
		}
	})
}

// fullNode returns a full 3-edge node whose victim — edge 1, the lowest id of
// the two weakest — a refused credit has just made it remember.
func fullNode(t *testing.T) *Node {
	n := new(Node)
	n.Add(2, 1, 3)
	n.Add(1, 1, 3)
	n.Add(3, 2, 3)
	if slot := n.Add(9, 1, 3); slot != -1 || n.victim != 2 {
		t.Fatalf("refused credit: slot %d, victim %d; want -1 and slot 1 remembered", slot, n.victim)
	}
	return n
}

func TestVictimCreditedIsRecomputed(t *testing.T) {
	n := fullNode(t)
	n.Add(1, 5, 3) // the victim grows past everyone
	if n.victim != 0 {
		t.Fatalf("crediting the victim left it remembered (%d)", n.victim)
	}
	if slot := n.Add(9, 1.5, 3); slot != 0 || n.Edges[0] != (Edge{To: 9, Weight: 1.5}) {
		t.Fatalf("evicted slot %d of %+v, want edge 2 (slot 0) replaced", slot, n.Edges)
	}
}

func TestVictimOverwrittenIsRecomputed(t *testing.T) {
	n := fullNode(t)
	if slot := n.Add(9, 3, 3); slot != 1 || n.victim != 0 {
		t.Fatalf("eviction took slot %d, victim %d; want slot 1 and nothing remembered", slot, n.victim)
	}
	if slot := n.Add(8, 1.5, 3); slot != 0 { // the new edge 9 (3) is no longer the weakest: 2 (1) is
		t.Fatalf("second eviction took slot %d of %+v, want slot 0", slot, n.Edges)
	}
}

func TestRefusedCreditLeavesNodeAndVictim(t *testing.T) {
	n := fullNode(t)
	before := slices.Clone(n.Edges)
	if slot := n.Add(7, 0.5, 3); slot != -1 {
		t.Fatalf("weaker credit took slot %d", slot)
	}
	if !slices.Equal(n.Edges, before) || n.victim != 2 || n.Total != 5.5 {
		t.Fatalf("refused credit changed the node: %+v (victim %d)", n, n.victim)
	}
	n.Add(3, 1, 3) // crediting another edge keeps the remembered slot
	if n.victim != 2 {
		t.Fatalf("crediting a stronger edge forgot the victim (%d)", n.victim)
	}
}

// plain reports whether no edge carries a rank: copies out of a node.
func plain(edges []Edge) bool {
	return !slices.ContainsFunc(edges, func(e Edge) bool { return e.rank != 0 })
}

// TestSortedByIDRemembersOrder: SortedByID leaves every edge in its slot,
// hands out plain copies and remembers the id order in the edges' ranks; a
// credit keeps it, an append or a replacement drops it.
func TestSortedByIDRemembersOrder(t *testing.T) {
	n := new(Node)
	for _, to := range []trace.FileID{5, 2, 9} {
		n.Add(to, 1, 3)
	}
	slots := slices.Clone(n.Edges)
	check := func(step string, remembered bool) {
		t.Helper()
		if n.ordered != remembered {
			t.Fatalf("%s: ordered=%v, want %v", step, n.ordered, remembered)
		}
		got := n.SortedByID(nil)
		if !plain(got) || !sameEdges(got, byID(n)) || !n.ordered {
			t.Fatalf("%s: SortedByID %+v, want plain copies of %+v and the order remembered", step, got, byID(n))
		}
	}
	check("first sort", false)
	if !sameEdges(n.Edges, slots) {
		t.Fatalf("SortedByID moved the slots: %+v, was %+v", n.Edges, slots)
	}
	if ranks := []uint32{n.Edges[0].rank, n.Edges[1].rank, n.Edges[2].rank}; !slices.Equal(ranks, []uint32{1, 0, 2}) {
		t.Fatalf("ranks of %+v are %v, want slots 1 0 2", n.Edges, ranks)
	}
	n.Add(2, 1, 3) // a credit: the ids are those the order was taken of
	check("after a credit", true)
	n.Add(1, 3, 3) // replaces 5, the lowest id of the weakest; the length stays
	check("after a replacement", false)
	n.Add(7, 1, 0) // an append
	check("after an append", false)
}
