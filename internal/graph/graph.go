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
	"sync"

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
	c.normalize()
	return c
}

func (c *Config) normalize() {
	if c.Window <= 0 {
		c.Window = 3
	}
	if c.Decrement < 0 {
		c.Decrement = 0.1
	}
	if c.MinAssign < 0 {
		c.MinAssign = 0
	}
}

// Edge is one successor relationship.
type Edge struct {
	To     trace.FileID
	Weight float64 // accumulated LDA credit N_xy
}

// node is one file's out-edge table: a compact slice searched linearly, with
// distinct To ids in no particular order. At the default MaxSuccessors it is
// at most 64 entries (1 KiB), where a scan beats hashing and the eviction
// victim is found without iterating a map.
type node struct {
	total float64 // N_x: accumulated outbound credit (denominator of F)
	edges []Edge
}

// find returns the slot of the edge to the given file, -1 when there is none.
func (n *node) find(to trace.FileID) int {
	for i := range n.edges {
		if n.edges[i].To == to {
			return i
		}
	}
	return -1
}

// weight returns N_xy for the edge to the given file, 0 when there is none.
func (n *node) weight(to trace.FileID) float64 {
	if i := n.find(to); i >= 0 {
		return n.edges[i].Weight
	}
	return 0
}

// sortedByID returns a copy of the out-edges in ascending file id order.
func (n *node) sortedByID() []Edge {
	out := slices.Clone(n.edges)
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return out
}

// Graph is the correlation graph. Feed is single-writer; read methods may be
// called concurrently with each other but not with Feed unless the caller
// wraps the graph in Locked.
type Graph struct {
	cfg    Config
	nodes  map[trace.FileID]*node
	window []trace.FileID // most recent accesses, oldest first
}

// New creates an empty graph.
func New(cfg Config) *Graph {
	cfg.normalize()
	return &Graph{cfg: cfg, nodes: make(map[trace.FileID]*node)}
}

// Feed records one access: every file currently in the lookahead window gains
// an LDA-weighted edge to the new file.
func (g *Graph) Feed(f trace.FileID) {
	for i := len(g.window) - 1; i >= 0; i-- {
		pred := g.window[i]
		if pred == f {
			continue
		}
		dist := len(g.window) - i // 1 = immediate predecessor
		credit := 1.0 - float64(dist-1)*g.cfg.Decrement
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
		copy(g.window, g.window[1:])
		g.window = g.window[:g.cfg.Window]
	}
}

// ResetWindow clears the lookahead window without discarding accumulated
// weights. Callers use this at stream boundaries (e.g. when interleaving
// per-process sub-streams) so credit never crosses streams.
func (g *Graph) ResetWindow() { g.window = g.window[:0] }

// Add accumulates w credit on the edge from->to without touching the
// graph's own lookahead window. It is the windowless primitive behind Feed:
// sharded ingestion computes LDA credits against a globally ordered window
// and applies them to the shard that owns the edge's source node.
func (g *Graph) Add(from, to trace.FileID, w float64) {
	if w <= 0 || from == to {
		return
	}
	g.addEdge(from, to, w)
}

func (g *Graph) addEdge(from, to trace.FileID, w float64) {
	n := g.nodes[from]
	if n == nil {
		n = &node{edges: make([]Edge, 0, 4)}
		g.nodes[from] = n
	}
	n.total += w
	if i := n.find(to); i >= 0 {
		n.edges[i].Weight += w
		return
	}
	if g.cfg.MaxSuccessors <= 0 || len(n.edges) < g.cfg.MaxSuccessors {
		n.edges = append(n.edges, Edge{To: to, Weight: w})
		return
	}
	// Full: the weakest edge makes room, unless the new edge is no stronger.
	// Ties break toward the lowest file id — a total order, so eviction, and
	// therefore the whole mined state, does not depend on slot order.
	victim := &n.edges[0]
	for i := 1; i < len(n.edges); i++ {
		e := &n.edges[i]
		if e.Weight < victim.Weight || (e.Weight == victim.Weight && e.To < victim.To) {
			victim = e
		}
	}
	if w > victim.Weight {
		*victim = Edge{To: to, Weight: w}
	}
}

// Weight returns the accumulated credit N_xy for edge from->to.
func (g *Graph) Weight(from, to trace.FileID) float64 {
	n := g.nodes[from]
	if n == nil {
		return 0
	}
	return n.weight(to)
}

// Total returns N_x, the accumulated outbound credit of a node.
func (g *Graph) Total(from trace.FileID) float64 {
	n := g.nodes[from]
	if n == nil {
		return 0
	}
	return n.total
}

// Frequency returns F(from,to) = N_xy / N_x (paper §3.2.2), or 0 when the
// node is unknown.
func (g *Graph) Frequency(from, to trace.FileID) float64 {
	n := g.nodes[from]
	if n == nil || n.total == 0 {
		return 0
	}
	return n.weight(to) / n.total
}

// Successors returns all out-edges of a node sorted by decreasing weight
// (ties broken by ascending id for determinism).
func (g *Graph) Successors(from trace.FileID) []Edge {
	n := g.nodes[from]
	if n == nil {
		return nil
	}
	out := slices.Clone(n.edges)
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
		n += len(nd.edges)
	}
	return n
}

// MemoryBytes estimates the resident size of the graph's correlation state:
// per-node overhead plus per-edge entries. Used for the Table-4 space
// overhead experiment and tenant budgets, so the constants are part of the
// model's observable behaviour and do not follow layout changes.
func (g *Graph) MemoryBytes() int64 {
	const (
		nodeOverhead = 64 // map entry + node struct + edge table header
		edgeBytes    = 16 // fileID + float64 (+ padding amortised)
	)
	var b int64
	for _, nd := range g.nodes {
		b += nodeOverhead + int64(len(nd.edges))*edgeBytes
	}
	return b
}

// Export visits every node (unspecified order) with its exact accumulated
// state: the outbound total N_x — which includes credit from since-evicted
// edges, so it is NOT derivable from the surviving edge weights — and the
// out-edges sorted by ascending file id. Return false to stop early. This is
// the read half of graph persistence: a checkpoint that omitted the graph
// would make every post-restore Frequency() start from zero and silently
// diverge from a continuously-mined model.
func (g *Graph) Export(fn func(from trace.FileID, total float64, edges []Edge) bool) {
	for id, nd := range g.nodes {
		if !fn(id, nd.total, nd.sortedByID()) {
			return
		}
	}
}

// ExportNode returns one node in Export's shape — total plus out-edges
// sorted by ascending file id — or ok=false when the file has no node. The
// incremental checkpoint path uses it to re-serialize only dirty nodes
// instead of walking the whole graph.
func (g *Graph) ExportNode(from trace.FileID) (total float64, edges []Edge, ok bool) {
	nd, ok := g.nodes[from]
	if !ok {
		return 0, nil, false
	}
	return nd.total, nd.sortedByID(), true
}

// RestoreNode installs one exported node exactly — total and edge weights as
// given, replacing any existing node for the same file. The edges must name
// distinct successors, as Export's do; the checkpoint decoder refuses a
// record that repeats one.
func (g *Graph) RestoreNode(from trace.FileID, total float64, edges []Edge) {
	g.nodes[from] = &node{total: total, edges: slices.Clone(edges)}
}

// Prune removes edges whose frequency F falls below minFreq, dropping nodes
// that become edgeless. It returns the number of edges removed.
func (g *Graph) Prune(minFreq float64) int {
	removed := 0
	for id, nd := range g.nodes {
		if nd.total <= 0 {
			delete(g.nodes, id)
			continue
		}
		before := len(nd.edges)
		nd.edges = slices.DeleteFunc(nd.edges, func(e Edge) bool { return e.Weight/nd.total < minFreq })
		removed += before - len(nd.edges)
		if len(nd.edges) == 0 {
			delete(g.nodes, id)
		}
	}
	return removed
}

// Locked wraps a Graph with a mutex for concurrent Feed/read mixing.
type Locked struct {
	mu sync.RWMutex
	g  *Graph
}

// NewLocked returns a concurrency-safe wrapper around a new graph.
func NewLocked(cfg Config) *Locked { return &Locked{g: New(cfg)} }

// Feed records an access under the write lock.
func (l *Locked) Feed(f trace.FileID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.g.Feed(f)
}

// Successors reads out-edges under the read lock.
func (l *Locked) Successors(from trace.FileID) []Edge {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.g.Successors(from)
}

// Frequency reads F(from,to) under the read lock.
func (l *Locked) Frequency(from, to trace.FileID) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.g.Frequency(from, to)
}
