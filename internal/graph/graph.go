// Package graph implements the directed, weighted correlation graph that
// FARMER's Stage-2 (Constructing) maintains, and that the Nexus / Probability
// Graph / SD Graph baselines also build on. Nodes are files; an edge A->B
// accumulates Linear-Decremented-Assignment (LDA) credit every time B appears
// within a lookahead window after A (paper §3.2.2): the immediate successor
// earns 1.0, the next 0.9, then 0.8, decreasing by Decrement per step and
// clamped at MinAssign.
package graph

import (
	"cmp"
	"slices"

	"farmer/internal/trace"
)

// Config controls window counting.
type Config struct {
	// Window is the lookahead distance: how many following accesses receive
	// successor credit. The paper (following Nexus) uses small windows;
	// default 3, matching the ABCD example (B:1.0 C:0.9 D:0.8).
	Window int
	// Decrement is the per-step LDA reduction; default 0.1.
	Decrement float64
	// MinAssign floors the credit; default 0.
	MinAssign float64
	// MaxSuccessors bounds each node's out-edge table; 0 means unbounded.
	// When full, the weakest edge is evicted (keeps memory bounded on
	// adversarial traces).
	MaxSuccessors int
}

// DefaultConfig returns the paper-faithful parameters.
func DefaultConfig() Config {
	return Config{Window: 3, Decrement: 0.1, MinAssign: 0, MaxSuccessors: 64}
}

// Normalized returns the config with defaults filled in exactly as New
// would apply them. Sharded ingestion uses it so the dispatcher's window
// bookkeeping matches the graph's own.
func (c Config) Normalized() Config {
	if c.Window <= 0 {
		c.Window = 3
	}
	if c.Decrement < 0 {
		c.Decrement = 0.1
	}
	if c.MinAssign < 0 {
		c.MinAssign = 0
	}
	return c
}

// Credit is the LDA credit a normalized config assigns a successor dist
// accesses after its predecessor (1 = the immediate successor): 1.0 less
// Decrement per further step, floored at MinAssign.
func (c Config) Credit(dist int) float64 {
	return max(1.0-float64(dist-1)*c.Decrement, c.MinAssign)
}

// Edge is one successor relationship.
type Edge struct {
	To trace.FileID
	// rank is its node's id order, in what would be padding: while the node
	// is ordered, Edges[i].rank is the slot of its i-th edge by id.
	rank   uint32
	Weight float64 // accumulated LDA credit N_xy
}

// Node is one file's out-edge table: a compact slice searched linearly, with
// distinct To ids in no particular order. At the default MaxSuccessors it is
// at most 64 entries (1 KiB), where a scan beats hashing. Graph keeps one per
// file, and so does core.Model inside its per-file record: LDA credit-and-
// evict is Add, written once.
type Node struct {
	Total float64 // N_x: accumulated outbound credit (denominator of F)
	Edges []Edge

	// victim is one more than the slot a full node evicts from, 0 until a
	// miss has looked (and in a node built from a checkpoint's Total and
	// Edges). Weights only grow and a full node never shrinks, so the weakest
	// edge stays the weakest until it is itself credited or replaced.
	victim int32
	// ordered says the ranks hold the id order SortedByID last computed;
	// only Add's append and replacement clear it (a credit moves no id).
	// Edges keeps insertion order: the oldest successors lead Find's scan.
	ordered bool
}

// Find returns the slot of the edge to the given file, -1 when there is none.
func (n *Node) Find(to trace.FileID) int {
	for i := range n.Edges {
		if n.Edges[i].To == to {
			return i
		}
	}
	return -1
}

// Add accumulates w credit toward the given file and returns the slot of
// that edge, so a caller reads N_xy without a second scan — or -1 when the
// table (maxSuccessors entries; 0 means unbounded) is full of edges no
// weaker than w, and the credit went to the total alone.
func (n *Node) Add(to trace.FileID, w float64, maxSuccessors int) int {
	n.Total += w
	if i := n.Find(to); i >= 0 {
		n.Edges[i].Weight += w
		if int(n.victim) == i+1 {
			n.victim = 0
		}
		return i
	}
	if maxSuccessors <= 0 || len(n.Edges) < maxSuccessors {
		if n.Edges == nil {
			n.Edges = make([]Edge, 0, 4)
		}
		n.Edges = append(n.Edges, Edge{To: to, Weight: w})
		n.victim = 0 // only a caller that raised maxSuccessors gets here with one remembered
		n.ordered = false
		return len(n.Edges) - 1
	}
	// Full: the weakest edge makes room, unless the new edge is no stronger.
	// Ties break toward the lowest file id — a total order, so eviction, and
	// therefore the whole mined state, does not depend on slot order.
	if n.victim == 0 {
		victim := 0
		for i := 1; i < len(n.Edges); i++ {
			e, v := &n.Edges[i], &n.Edges[victim]
			if e.Weight < v.Weight || (e.Weight == v.Weight && e.To < v.To) {
				victim = i
			}
		}
		n.victim = int32(victim + 1)
	}
	victim := int(n.victim) - 1
	if w > n.Edges[victim].Weight {
		n.Edges[victim] = Edge{To: to, Weight: w}
		n.victim, n.ordered = 0, false
		return victim
	}
	return -1
}

// SortedByID copies the out-edges, rank 0, into dst's storage (grown when
// short) in ascending id order — the order a checkpoint writes — leaving each
// in its slot. It gathers them by the ranks, or first sorts each edge as one
// integer, its id (distinct in a node) above its slot, and writes the ranks:
// like Add, it needs the node to itself.
func (n *Node) SortedByID(dst []Edge) []Edge {
	out := dst[:0]
	if !n.ordered {
		var keep [64]uint64 // the default MaxSuccessors: no allocation
		keys := keep[:0]
		for i, e := range n.Edges {
			keys = append(keys, uint64(e.To)<<32|uint64(i))
		}
		slices.Sort(keys)
		for i, k := range keys {
			n.Edges[i].rank = uint32(k)
		}
		n.ordered = true
	}
	for i := range n.Edges {
		e := &n.Edges[n.Edges[i].rank]
		out = append(out, Edge{To: e.To, Weight: e.Weight})
	}
	return out
}

// MemoryBytes estimates the node's resident size: per-node overhead plus
// per-edge entries. Used for the Table-4 space overhead experiment and tenant
// budgets, so the constants are part of the model's observable behaviour and
// do not follow layout changes.
func (n *Node) MemoryBytes() int64 {
	const (
		nodeOverhead = 64 // map entry + node struct + edge table header
		edgeBytes    = 16 // fileID + float64 (+ padding amortised)
	)
	return nodeOverhead + int64(len(n.Edges))*edgeBytes
}

// Graph is the correlation graph the Nexus / Probability Graph / SD Graph
// baselines predict from. It is single-goroutine: callers serialize.
type Graph struct {
	cfg    Config
	nodes  map[trace.FileID]*Node
	window []trace.FileID // most recent accesses, oldest first
}

// New creates an empty graph.
func New(cfg Config) *Graph {
	return &Graph{cfg: cfg.Normalized(), nodes: make(map[trace.FileID]*Node)}
}

// Feed records one access: every file currently in the lookahead window gains
// an LDA-weighted edge to the new file.
func (g *Graph) Feed(f trace.FileID) {
	for i := len(g.window) - 1; i >= 0; i-- {
		g.Add(g.window[i], f, g.cfg.Credit(len(g.window)-i))
	}
	g.window = append(g.window, f)
	if len(g.window) > g.cfg.Window {
		copy(g.window, g.window[1:])
		g.window = g.window[:g.cfg.Window]
	}
}

// Add accumulates w credit on the edge from->to without touching the
// graph's own lookahead window — the windowless primitive behind Feed.
func (g *Graph) Add(from, to trace.FileID, w float64) {
	if w <= 0 || from == to {
		return
	}
	n := g.nodes[from]
	if n == nil {
		n = new(Node)
		g.nodes[from] = n
	}
	n.Add(to, w, g.cfg.MaxSuccessors)
}

// Total returns N_x, the accumulated outbound credit of a node.
func (g *Graph) Total(from trace.FileID) float64 {
	n := g.nodes[from]
	if n == nil {
		return 0
	}
	return n.Total
}

// Frequency returns F(from,to) = N_xy / N_x (paper §3.2.2), or 0 when the
// node is unknown.
func (g *Graph) Frequency(from, to trace.FileID) float64 {
	if n := g.nodes[from]; n != nil && n.Total != 0 {
		if i := n.Find(to); i >= 0 {
			return n.Edges[i].Weight / n.Total
		}
	}
	return 0
}

// Successors returns all out-edges of a node sorted by decreasing weight
// (ties broken by ascending id for determinism).
func (g *Graph) Successors(from trace.FileID) []Edge {
	n := g.nodes[from]
	if n == nil {
		return nil
	}
	out := slices.Clone(n.Edges)
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(b.Weight, a.Weight), cmp.Compare(a.To, b.To))
	})
	return out
}

// Nodes reports the number of files with at least one out-edge.
func (g *Graph) Nodes() int { return len(g.nodes) }

// Edges reports the total directed edge count.
func (g *Graph) Edges() int {
	n := 0
	for _, nd := range g.nodes {
		n += len(nd.Edges)
	}
	return n
}
