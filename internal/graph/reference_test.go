package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"farmer/internal/trace"
)

// refGraph is the map-per-node graph this package shipped before nodes
// became edge slices, kept as the oracle the slice layout is held to: same
// credits, same eviction victims — to the bit.
type refGraph struct {
	cfg    Config
	nodes  map[trace.FileID]*refNode
	window []trace.FileID
}

type refNode struct {
	total float64
	edges map[trace.FileID]float64
}

func newRefGraph(cfg Config) *refGraph {
	return &refGraph{cfg: cfg.Normalized(), nodes: make(map[trace.FileID]*refNode)}
}

func (g *refGraph) Feed(f trace.FileID) {
	for i := len(g.window) - 1; i >= 0; i-- {
		pred := g.window[i]
		if pred == f {
			continue
		}
		credit := 1.0 - float64(len(g.window)-i-1)*g.cfg.Decrement
		if credit < g.cfg.MinAssign {
			credit = g.cfg.MinAssign
		}
		if credit <= 0 {
			continue
		}
		g.addEdge(pred, f, credit)
	}
	g.window = append(g.window, f)
	if len(g.window) > g.cfg.Window {
		g.window = slices.Delete(g.window, 0, 1)
	}
}

func (g *refGraph) Add(from, to trace.FileID, w float64) {
	if w <= 0 || from == to {
		return
	}
	g.addEdge(from, to, w)
}

func (g *refGraph) addEdge(from, to trace.FileID, w float64) {
	n := g.nodes[from]
	if n == nil {
		n = &refNode{edges: make(map[trace.FileID]float64, 4)}
		g.nodes[from] = n
	}
	n.total += w
	if _, exists := n.edges[to]; !exists && g.cfg.MaxSuccessors > 0 && len(n.edges) >= g.cfg.MaxSuccessors {
		var victim trace.FileID
		minW := -1.0
		for id, ew := range n.edges {
			if minW < 0 || ew < minW || (ew == minW && id < victim) {
				minW = ew
				victim = id
			}
		}
		if minW >= 0 && w <= minW {
			return
		}
		delete(n.edges, victim)
	}
	n.edges[to] += w
}

// dump renders the complete state — every node's total and its edges in
// ascending id order, floats as exact bits — so two graphs compare as strings.
func (g *refGraph) dump() string {
	ids := make([]trace.FileID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []byte
	for _, id := range ids {
		nd := g.nodes[id]
		out = fmt.Appendf(out, "%d:%x", id, math.Float64bits(nd.total))
		tos := make([]trace.FileID, 0, len(nd.edges))
		for to := range nd.edges {
			tos = append(tos, to)
		}
		slices.Sort(tos)
		for _, to := range tos {
			out = fmt.Appendf(out, " %d=%x", to, math.Float64bits(nd.edges[to]))
		}
		out = append(out, '\n')
	}
	return string(out)
}

func (g *Graph) dump() string {
	ids := make([]trace.FileID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []byte
	for _, id := range ids {
		nd := g.nodes[id]
		out = fmt.Appendf(out, "%d:%x", id, math.Float64bits(nd.Total))
		for _, e := range nd.SortedByID(nil) {
			out = fmt.Appendf(out, " %d=%x", e.To, math.Float64bits(e.Weight))
		}
		out = append(out, '\n')
	}
	return string(out)
}

// TestGraphMatchesReference drives the slice-backed graph and the map-backed
// oracle with the same seeded random operations. With Decrement 0 every
// credit is 1.0, so edge weights are small equal integers and a full node
// almost always evicts among tied weakest edges — the tie-break toward the
// lowest id is what keeps the two in step. Fractional Add credits cover
// unequal weights.
func TestGraphMatchesReference(t *testing.T) {
	for _, maxSucc := range []int{1, 3, 64} {
		for _, decrement := range []float64{0, 0.1} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := Config{Window: 3, Decrement: decrement, MaxSuccessors: maxSucc}
				got, want := New(cfg), newRefGraph(cfg)
				rng := rand.New(rand.NewPCG(seed, uint64(maxSucc)))
				files := 4 * (maxSucc + 2) // enough distinct successors to fill and overflow a node
				name := fmt.Sprintf("max=%d decrement=%v seed=%d", maxSucc, decrement, seed)
				for op := 0; op < 6000; op++ {
					switch k := rng.IntN(100); {
					case k < 80:
						f := trace.FileID(rng.IntN(files))
						got.Feed(f)
						want.Feed(f)
					default:
						from, to := trace.FileID(rng.IntN(files)), trace.FileID(rng.IntN(files))
						w := float64(rng.IntN(5)) / 2 // 0 and from == to exercise the refusals
						got.Add(from, to, w)
						want.Add(from, to, w)
					}
					if op%500 == 499 {
						if g, w := got.dump(), want.dump(); g != w {
							t.Fatalf("%s: diverged by op %d\n got:\n%s\nwant:\n%s", name, op, g, w)
						}
					}
				}
				for f := 0; f < files; f++ {
					for to := 0; to < files; to++ {
						from, to := trace.FileID(f), trace.FileID(to)
						var w float64
						if nd := want.nodes[from]; nd != nil {
							w = nd.edges[to]
						}
						if g := got.Weight(from, to); g != w {
							t.Fatalf("%s: Weight(%d,%d) = %v, reference %v", name, from, to, g, w)
						}
					}
				}
			}
		}
	}
}
