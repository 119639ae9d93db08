// Package core implements the FARMER model itself (paper §3): a streaming
// four-stage pipeline —
//
//	Stage 1 Extracting:  pull semantic attributes out of each file request
//	                     (delegated to vsm.Extractor);
//	Stage 2 Constructing: maintain the directed, weighted correlation graph
//	                     over the access sequence (delegated to graph.Graph
//	                     with Linear Decremented Assignment);
//	Stage 3 Mining & Evaluating (CoMiner): combine semantic distance and
//	                     access frequency into the file correlation degree
//	                     R(x,y) = p·sim(x,y) + (1−p)·F(x,y) and filter out
//	                     degrees below the max_strength validity threshold;
//	Stage 4 Sorting:     keep each file's surviving successors in a
//	                     Correlator List ordered by decreasing degree.
//
// The model is incremental: every Feed updates only the lists of the files in
// the current lookahead window, so a single pass over a trace produces the
// complete correlation knowledge and Predict is O(1) lookups thereafter.
package core

import (
	"fmt"
	"math"
	"sync"

	"farmer/internal/graph"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// Config sets the FARMER parameters. The zero value is unusable; use
// DefaultConfig as a starting point.
type Config struct {
	// Weight is p in R = p·sim + (1−p)·F. The paper finds p = 0.7 best.
	Weight float64
	// MaxStrength is the validity threshold (paper §3.2.4): correlations
	// with degree <= MaxStrength are filtered out. Despite the name it is a
	// lower bound — the paper's terminology is kept verbatim.
	MaxStrength float64
	// Mask selects the semantic attributes used by CoMiner.
	Mask vsm.Mask
	// PathAlg selects DPA or IPA path handling; the paper uses IPA.
	PathAlg vsm.PathAlg
	// Graph configures the Stage-2 correlation graph.
	Graph graph.Config
	// MaxCorrelators bounds each Correlator List; 0 means unbounded.
	MaxCorrelators int
	// Shards selects how many FileID-striped partitions NewSharded spreads
	// the miner across; 0 and 1 both mean one. The mined state is identical
	// to Model's at every count, and Model itself ignores the knob.
	Shards int
}

// DefaultConfig returns the paper's chosen parameters for a trace with full
// path attributes: p = 0.7, max_strength = 0.4, IPA, window 3.
func DefaultConfig() Config {
	return Config{
		Weight:         0.7,
		MaxStrength:    0.4,
		Mask:           vsm.AllPathMask,
		PathAlg:        vsm.IPA,
		Graph:          graph.DefaultConfig(),
		MaxCorrelators: 16,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if math.IsNaN(c.Weight) || c.Weight < 0 || c.Weight > 1 {
		return fmt.Errorf("core: weight p = %v outside [0,1]", c.Weight)
	}
	if math.IsNaN(c.MaxStrength) || c.MaxStrength < 0 || c.MaxStrength > 1 {
		return fmt.Errorf("core: max_strength = %v outside [0,1]", c.MaxStrength)
	}
	if c.MaxCorrelators < 0 {
		return fmt.Errorf("core: negative MaxCorrelators %d", c.MaxCorrelators)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative Shards %d", c.Shards)
	}
	return nil
}

// Correlator is one entry of a file's Correlator List: a successor together
// with the evaluated correlation degree and its two components.
type Correlator struct {
	File   trace.FileID
	Degree float64 // R(x,y)
	Sim    float64 // semantic distance component
	Freq   float64 // access-frequency component
}

// Model is the FARMER correlation miner. Feed must be called from a single
// goroutine; Predict/CorrelatorList/stats methods are safe to call
// concurrently with each other and with Feed.
type Model struct {
	cfg       Config
	winSize   int // lookahead window, normalized like the graph's own
	extractor *vsm.Extractor

	// listHook, when set, is invoked under m.mu after every Correlator-List
	// mutation (insert, update, drop, checkpoint install) with the owning
	// predecessor — how a caller counts or mirrors list changes. Set it
	// before the model is shared between goroutines.
	listHook func(trace.FileID)

	mu      sync.RWMutex
	g       *graph.Graph
	vectors map[trace.FileID]vsm.Vector
	lists   map[trace.FileID][]Correlator
	window  []trace.FileID // recent accesses, oldest first
	fed     uint64

	// Incremental-checkpoint dirty tracking. Once a save or load has
	// synchronized the model with a checkpoint store, every mutation marks
	// the touched file so the next save can write only the delta. dirtyOn
	// stays false (one branch per mutation, no map traffic) until the first
	// save/load — a model that never checkpoints pays nothing. The owning
	// ensemble binds the dirty sets to the store (and its epoch) they are a
	// delta against; see persist.go.
	dirtyOn bool
	dirty   map[trace.FileID]uint8 // dirtyList|dirtyVec|dirtyGraph bits
}

// Dirty bits: which of a file's three persisted facets changed since the
// last completed save. A set bit with the facet now absent from the model
// is a deletion tombstone — the incremental save deletes the key.
const (
	dirtyList uint8 = 1 << iota
	dirtyVec
	dirtyGraph
)

// markDirty records that a facet of f changed. Callers hold m.mu.
func (m *Model) markDirty(f trace.FileID, bits uint8) {
	if m.dirtyOn {
		m.dirty[f] |= bits
	}
}

// resetDirtyLocked clears the dirty set and (re)enables tracking — called
// under m.mu by the persistence layer once a save or load has synchronized
// the model with its checkpoint store.
func (m *Model) resetDirtyLocked() {
	m.dirtyOn = true
	if m.dirty == nil {
		m.dirty = make(map[trace.FileID]uint8)
		return
	}
	clear(m.dirty)
}

// DirtyFiles reports how many files have pending dirty marks — the size of
// the next incremental checkpoint.
func (m *Model) DirtyFiles() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.dirty)
}

// New creates a model; it panics on invalid configuration (programmer
// error), matching the constructor conventions of the stdlib.
func New(cfg Config) *Model {
	m := new(Model)
	m.init(cfg)
	return m
}

// init constructs the model in place — the seam that lets ShardedModel
// allocate its shards as one padded contiguous block instead of pointer-
// chasing individually boxed Models.
func (m *Model) init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ex := vsm.NewExtractor(cfg.Mask)
	ex.Alg = cfg.PathAlg
	m.cfg = cfg
	m.winSize = cfg.Graph.Normalized().Window
	m.extractor = ex
	m.g = graph.New(cfg.Graph)
	m.vectors = make(map[trace.FileID]vsm.Vector)
	m.lists = make(map[trace.FileID][]Correlator)
}

// SetListChangeHook registers fn to run (under the model lock) whenever a
// file's Correlator List changes. At most one hook; nil unregisters. Must be
// called before the model is fed from multiple goroutines.
func (m *Model) SetListChangeHook(fn func(trace.FileID)) {
	m.mu.Lock()
	m.listHook = fn
	m.mu.Unlock()
}

// notifyListChange invokes the registered hook, if any, and marks the list
// dirty for the next incremental checkpoint — every Correlator-List mutation
// (insert, update, drop, install) funnels through here. Callers hold m.mu.
func (m *Model) notifyListChange(f trace.FileID) {
	m.markDirty(f, dirtyList)
	if m.listHook != nil {
		m.listHook(f)
	}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Feed runs all four stages for one file request.
func (m *Model) Feed(r *trace.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Stage 1: Extracting.
	v := m.extractor.Extract(r)
	m.vectors[r.File] = v
	m.markDirty(r.File, dirtyVec)

	// Stage 2: Constructing. Credit every file in the lookahead window.
	m.g.Feed(r.File)

	// Stage 3+4: Mining & Evaluating + Sorting, for each predecessor whose
	// edge to r.File just changed.
	for _, pred := range m.window {
		if pred == r.File {
			continue
		}
		m.markDirty(pred, dirtyGraph)
		m.evaluate(pred, r.File)
	}

	// Trim to the same normalized window the graph credits: evaluating
	// predecessors the graph no longer assigns credit to would only recompute
	// unchanged degrees.
	m.window = append(m.window, r.File)
	if w := m.winSize; len(m.window) > w {
		copy(m.window, m.window[1:])
		m.window = m.window[:w]
	}
	m.fed++
}

// evaluate recomputes R(pred, succ) and updates pred's Correlator List,
// holding m.mu.
func (m *Model) evaluate(pred, succ trace.FileID) {
	vs, okS := m.vectors[succ]
	m.evaluateVec(pred, succ, vs, okS)
}

// evaluateVec is evaluate with the successor's semantic vector supplied by
// the caller. Sharded ingestion routes an edge event to the shard owning
// pred, which stores pred's vector but not succ's, so the dispatcher ships
// succ's freshly extracted vector along with the event.
func (m *Model) evaluateVec(pred, succ trace.FileID, vs vsm.Vector, okS bool) {
	vp, okP := m.vectors[pred]
	var sim float64
	if okP && okS {
		sim = vsm.Sim(&vp, &vs, m.cfg.PathAlg)
	}
	freq := m.g.Frequency(pred, succ)
	degree := m.cfg.Weight*sim + (1-m.cfg.Weight)*freq

	list := m.lists[pred]
	idx := -1
	for i := range list {
		if list[i].File == succ {
			idx = i
			break
		}
	}
	if degree <= m.cfg.MaxStrength {
		// Filtered out as invalid (paper §3.2.4); drop a stale entry.
		if idx >= 0 {
			list = append(list[:idx], list[idx+1:]...)
			if len(list) == 0 {
				delete(m.lists, pred)
			} else {
				m.lists[pred] = list
			}
			m.notifyListChange(pred)
		}
		return
	}
	m.lists[pred] = placeCorrelator(list, idx, Correlator{File: succ, Degree: degree, Sim: sim, Freq: freq}, m.cfg.MaxCorrelators)
	m.notifyListChange(pred)
}

// ranksBefore is the Correlator List order: decreasing degree, ties toward
// the lower file id. A list holds each file once, so the order is total and
// a sorted list is unique.
func ranksBefore(a, b *Correlator) bool {
	if a.Degree != b.Degree {
		return a.Degree > b.Degree
	}
	return a.File < b.File
}

// placeCorrelator is Stage 4 for one changed degree: entry replaces list[idx]
// (or is appended when idx < 0) and slides to its rank — every other entry
// is already in order, so moving the one that changed re-sorts the list —
// and the list is cut to limit entries (0 = unbounded).
func placeCorrelator(list []Correlator, idx int, entry Correlator, limit int) []Correlator {
	if idx < 0 {
		idx = len(list)
		list = append(list, entry)
	}
	for ; idx > 0 && ranksBefore(&entry, &list[idx-1]); idx-- {
		list[idx] = list[idx-1]
	}
	for ; idx < len(list)-1 && ranksBefore(&list[idx+1], &entry); idx++ {
		list[idx] = list[idx+1]
	}
	list[idx] = entry
	if limit > 0 && len(list) > limit {
		list = list[:limit]
	}
	return list
}

// FeedTrace feeds every record of a trace in order.
func (m *Model) FeedTrace(t *trace.Trace) {
	for i := range t.Records {
		m.Feed(&t.Records[i])
	}
}

// CorrelatorList returns a copy of the file's sorted Correlator List (nil
// when the file has no valid correlations).
func (m *Model) CorrelatorList(f trace.FileID) []Correlator {
	m.mu.RLock()
	defer m.mu.RUnlock()
	list := m.lists[f]
	if len(list) == 0 {
		return nil
	}
	return append([]Correlator(nil), list...)
}

// Predict returns up to k successor files of f in decreasing correlation
// degree — the prefetch candidates FPA issues for a demand access to f.
func (m *Model) Predict(f trace.FileID, k int) []trace.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	list := m.lists[f]
	if k > len(list) {
		k = len(list)
	}
	if k <= 0 {
		return nil
	}
	out := make([]trace.FileID, k)
	for i := 0; i < k; i++ {
		out[i] = list[i].File
	}
	return out
}

// Degree returns R(x,y) as currently recorded in x's Correlator List, or 0
// when the pair was filtered out.
func (m *Model) Degree(x, y trace.FileID) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.lists[x] {
		if c.File == y {
			return c.Degree
		}
	}
	return 0
}

// Fed reports how many records have been processed.
func (m *Model) Fed() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.fed
}

// Stats summarises model state for the space-overhead experiment.
//
// TapDepth and TapDropped are live tap-mailbox observability (sharded
// ensembles only; always zero on a bare Model, which has no taps). They are
// Go-side additions: the fixed 56-byte wire encoding of Stats (appendStats
// in internal/rpc) intentionally carries only the original seven fields so
// v2 MsgStats bodies stay byte-compatible — remote consumers get the tap
// numbers from the MsgObs frame instead.
type Stats struct {
	Fed          uint64
	TrackedFiles int // files with a stored semantic vector
	Lists        int // files with a non-empty Correlator List
	Correlators  int // total list entries
	GraphNodes   int
	GraphEdges   int
	MemoryBytes  int64  // estimated footprint of correlation state
	TapDepth     int    // events queued on tap mailboxes right now
	TapDropped   uint64 // tap events dropped to lagging consumers
}

// Stats returns a snapshot of the model's footprint.
func (m *Model) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Stats{
		Fed:          m.fed,
		TrackedFiles: len(m.vectors),
		Lists:        len(m.lists),
		GraphNodes:   m.g.Nodes(),
		GraphEdges:   m.g.Edges(),
	}
	for _, l := range m.lists {
		s.Correlators += len(l)
	}
	// Correlator list entries: File + Degree + Sim + Freq.
	const corrBytes = 32
	const listOverhead = 48
	const vecOverhead = 48
	var vecBytes int64
	for _, v := range m.vectors {
		vecBytes += vecOverhead + int64(len(v.Path))
		for _, sc := range v.Scalars {
			vecBytes += int64(len(sc)) + 16
		}
	}
	s.MemoryBytes = m.g.MemoryBytes() +
		int64(s.Correlators)*corrBytes +
		int64(s.Lists)*listOverhead +
		vecBytes
	return s
}

// Vector returns the last semantic vector extracted for a file and whether
// the file has been seen.
func (m *Model) Vector(f trace.FileID) (vsm.Vector, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.vectors[f]
	return v, ok
}

// ResetWindow forgets the current lookahead window (stream boundary) while
// keeping all mined knowledge.
func (m *Model) ResetWindow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.window = m.window[:0]
	m.g.ResetWindow()
}

// WindowTail returns a copy of the current lookahead window, oldest first.
func (m *Model) WindowTail() []trace.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]trace.FileID(nil), m.window...)
}
