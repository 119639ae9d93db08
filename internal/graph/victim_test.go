package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"farmer/internal/trace"
)

// refAdd is Node.Add as it was before a full node remembered its eviction
// victim: it scans for the minimum on every miss. The oracle for the
// remembered slot.
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

// sameNode compares two nodes as a checkpoint would see them: the total and
// the edges in id order, floats to the bit.
func sameNode(a, b *Node) bool {
	return math.Float64bits(a.Total) == math.Float64bits(b.Total) &&
		slices.EqualFunc(a.SortedByID(), b.SortedByID(), func(x, y Edge) bool {
			return x.To == y.To && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
		})
}

// FuzzNodeAddMatchesReference drives Add from a byte string: the first byte
// picks maxSuccessors from {1, 3, 64}, then each pair of bytes is one
// Add(to, w) over an id space a little larger than the table, with w a small
// multiple of a half so that ties and credits no stronger than the victim
// are common. A 0xff in the id position sends the node through SortedByID
// into a fresh Node — what LoadMerged does — which must forget the victim.
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
				got = Node{Total: got.Total, Edges: got.SortedByID()}
				want = Node{Total: want.Total, Edges: want.SortedByID()}
				continue
			}
			to, w := trace.FileID(int(data[op])%ids), float64(1+data[op+1]%6)/2
			g, r := got.Add(to, w, max), refAdd(&want, to, w, max)
			if (g < 0) != (r < 0) || (g >= 0 && got.Edges[g] != want.Edges[r]) || !sameNode(&got, &want) {
				t.Fatalf("max=%d op %d Add(%d, %v): slot %d %+v, reference slot %d %+v", max, op/2, to, w, g, got, r, want)
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
