package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"farmer/internal/trace"
)

// Weight returns the accumulated credit N_xy for edge from->to.
func (g *Graph) Weight(from, to trace.FileID) float64 {
	if n := g.nodes[from]; n != nil {
		if i := n.Find(to); i >= 0 {
			return n.Edges[i].Weight
		}
	}
	return 0
}

func feedSeq(g *Graph, ids ...trace.FileID) {
	for _, id := range ids {
		g.Feed(id)
	}
}

// TestPaperLDAExample reproduces §3.2.2's ABCD example: after feeding
// A,B,C,D with window 3, N_AB = 1.0, N_AC = 0.9, N_AD = 0.8.
func TestPaperLDAExample(t *testing.T) {
	g := New(Config{Window: 3, Decrement: 0.1})
	feedSeq(g, 0, 1, 2, 3) // A B C D
	cases := []struct {
		to   trace.FileID
		want float64
	}{{1, 1.0}, {2, 0.9}, {3, 0.8}}
	for _, c := range cases {
		if got := g.Weight(0, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("N_A%c = %v, want %v", 'B'+c.to-1, got, c.want)
		}
	}
	// Total outbound credit of A.
	if got := g.Total(0); math.Abs(got-2.7) > 1e-12 {
		t.Errorf("N_A = %v, want 2.7", got)
	}
}

func TestFrequencyNormalisation(t *testing.T) {
	g := New(Config{Window: 1})
	feedSeq(g, 0, 1, 0, 1, 0, 2)
	// A's immediate successors: B, B, C -> F(A,B)=2/3, F(A,C)=1/3.
	if got := g.Frequency(0, 1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("F(A,B) = %v, want 2/3", got)
	}
	if got := g.Frequency(0, 2); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("F(A,C) = %v, want 1/3", got)
	}
}

func TestSelfLoopSkipped(t *testing.T) {
	g := New(DefaultConfig())
	feedSeq(g, 5, 5, 5)
	if g.Weight(5, 5) != 0 {
		t.Fatal("self-loop recorded")
	}
	if g.Total(5) != 0 {
		t.Fatal("self-loop credited total")
	}
}

func TestWindowSlide(t *testing.T) {
	g := New(Config{Window: 2, Decrement: 0.1})
	feedSeq(g, 0, 1, 2, 3)
	// With window 2, file 0 should credit only 1 (dist 1 -> 1.0) and 2
	// (dist 2 -> 0.9); 3 is out of the window.
	if got := g.Weight(0, 3); got != 0 {
		t.Fatalf("edge beyond window: %v", got)
	}
	if got := g.Weight(0, 2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("N_0,2 = %v, want 0.9", got)
	}
}

func TestSuccessorsSorted(t *testing.T) {
	g := New(Config{Window: 3, Decrement: 0.1})
	feedSeq(g, 0, 1, 2, 3)
	succ := g.Successors(0)
	if len(succ) != 3 {
		t.Fatalf("successors = %d, want 3", len(succ))
	}
	for i := 1; i < len(succ); i++ {
		if succ[i].Weight > succ[i-1].Weight {
			t.Fatalf("successors not sorted: %+v", succ)
		}
	}
	if succ[0].To != 1 {
		t.Fatalf("strongest successor = %d, want 1", succ[0].To)
	}
}

func TestSuccessorsDeterministicTieBreak(t *testing.T) {
	g := New(Config{Window: 1})
	feedSeq(g, 0, 2, 0, 1) // edges 0->2 and 0->1, equal weight 1.0
	succ := g.Successors(0)
	if succ[0].To != 1 || succ[1].To != 2 {
		t.Fatalf("tie not broken by id: %+v", succ)
	}
}

func TestUnknownNode(t *testing.T) {
	g := New(DefaultConfig())
	if g.Successors(99) != nil || g.Weight(99, 1) != 0 || g.Frequency(99, 1) != 0 || g.Total(99) != 0 {
		t.Fatal("unknown node should be empty")
	}
}

func TestMaxSuccessorsEviction(t *testing.T) {
	g := New(Config{Window: 1, MaxSuccessors: 2})
	// 0->1 strengthened twice, 0->2 once, then 0->3 once: 3 must evict 2 or
	// be dropped; table stays at 2 entries and keeps the strongest edge.
	feedSeq(g, 0, 1, 0, 1, 0, 2, 0, 3)
	succ := g.Successors(0)
	if len(succ) != 2 {
		t.Fatalf("edge table size = %d, want 2", len(succ))
	}
	if succ[0].To != 1 {
		t.Fatalf("strongest edge lost: %+v", succ)
	}
}

func TestNodesEdgesCount(t *testing.T) {
	g := New(Config{Window: 1})
	feedSeq(g, 0, 1, 2, 0, 2)
	if g.Nodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.Nodes())
	}
	if g.Edges() != 4 { // 0->1, 1->2, 2->0, 0->2
		t.Fatalf("edges = %d, want 4", g.Edges())
	}
}

func TestMemoryBytesGrowsWithEdges(t *testing.T) {
	var n Node
	m0 := n.MemoryBytes()
	for i := trace.FileID(0); i < 100; i++ {
		n.Add(i, 1, 0)
	}
	if m := n.MemoryBytes(); m != m0+100*16 {
		t.Fatalf("MemoryBytes %d -> %d over 100 edges, want 16 more per edge", m0, m)
	}
}

// Property: Total always equals the sum of out-edge weights when no eviction
// happens (MaxSuccessors disabled, since eviction intentionally keeps the
// denominator as full history).
func TestTotalMatchesEdgeSumProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		g := New(Config{Window: 3, Decrement: 0.1, MaxSuccessors: 0})
		for i := 0; i < int(n); i++ {
			g.Feed(trace.FileID(rng.IntN(8)))
		}
		for id := trace.FileID(0); id < 8; id++ {
			var sum float64
			for _, e := range g.Successors(id) {
				sum += e.Weight
			}
			if math.Abs(sum-g.Total(id)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: frequencies out of a node sum to <= 1 (equal when no eviction).
func TestFrequencySumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		g := New(Config{Window: 2, Decrement: 0.1, MaxSuccessors: 0})
		for i := 0; i < 200; i++ {
			g.Feed(trace.FileID(rng.IntN(12)))
		}
		for id := trace.FileID(0); id < 12; id++ {
			var sum float64
			for _, e := range g.Successors(id) {
				sum += g.Frequency(id, e.To)
			}
			if sum > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigNormalize(t *testing.T) {
	g := New(Config{Window: -1, Decrement: -5, MinAssign: -1})
	feedSeq(g, 0, 1)
	if g.Weight(0, 1) != 1.0 {
		t.Fatal("normalised config broken")
	}
}

func TestMinAssignFloor(t *testing.T) {
	g := New(Config{Window: 5, Decrement: 0.5, MinAssign: 0.2})
	feedSeq(g, 0, 1, 2, 3, 4)
	// Distance 4 would be 1 - 3*0.5 = -0.5, floored to 0.2.
	if got := g.Weight(0, 4); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("floored credit = %v, want 0.2", got)
	}
}
