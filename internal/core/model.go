// Package core implements the FARMER model itself (paper §3): a streaming
// four-stage pipeline —
//
//	Stage 1 Extracting:  pull semantic attributes out of each file request
//	                     (delegated to vsm.Extractor);
//	Stage 2 Constructing: maintain the directed, weighted correlation graph
//	                     over the access sequence (one graph.Node per file,
//	                     credited by Linear Decremented Assignment);
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
	gcfg      graph.Config // cfg.Graph, normalized
	extractor *vsm.Extractor

	// listHook, when set, is invoked under m.mu after every Correlator-List
	// mutation (insert, update, drop, checkpoint install) with the owning
	// predecessor — how a caller counts or mirrors list changes. Set it
	// before the model is shared between goroutines.
	listHook func(trace.FileID)

	mu     sync.RWMutex
	files  map[trace.FileID]*file
	window []trace.FileID // recent accesses, oldest first
	hits   []hit          // Feed's scratch, one per window slot
	fed    uint64
	// touched sums what ApplyEvents and staging load ahead (file.touch), so
	// that the loads are kept; nothing reads it.
	touched uint64

	// Incremental-checkpoint dirty tracking. Once a save or load has
	// synchronized the model with a checkpoint store, every mutation marks
	// the touched facet in its file's record, and the record joins dirtyList
	// with its first mark: the next save writes only that delta. dirtyOn
	// stays false (one branch per mutation) until then. The owning ensemble
	// binds the dirty sets to the store (and its epoch) they are a delta
	// against; see persist.go.
	dirtyOn   bool
	dirtyList []fileRef
}

// fileRef is a record and its file's id; a record lives until reset.
type fileRef struct {
	id trace.FileID
	fp *file
}

// file is everything the model holds for one file id — its last semantic
// vector, its Correlator List and its correlation-graph node — so that an
// edge event finds all of its predecessor's state with one lookup. A record
// is created by the first event that names its file and stays until reset.
type file struct {
	vec  vsm.Vector
	list []Correlator // sorted; nil once the validity filter empties it
	node graph.Node

	// have says which facets exist, dirty which changed since the last
	// completed save. A dirty facet the file no longer has is a deletion
	// tombstone — the incremental save deletes the key.
	have, dirty uint8
}

// The three persisted facets of a file's record.
const (
	facetList uint8 = 1 << iota
	facetVec
	facetGraph
)

// hit is one window slot of the record being fed, between Stage 2 and
// Stage 3: the predecessor's record and the slot of the edge just credited.
type hit struct {
	fp   *file
	slot int
}

// file returns f's record, creating it on first sight. Callers hold m.mu.
func (m *Model) file(f trace.FileID) *file {
	fp := m.files[f]
	if fp == nil {
		fp = new(file)
		m.files[f] = fp
	}
	return fp
}

// markDirty records that facets of f, whose record is fp, changed. Callers
// hold m.mu.
func (m *Model) markDirty(fp *file, f trace.FileID, facets uint8) {
	if m.dirtyOn {
		if fp.dirty == 0 {
			m.dirtyList = append(m.dirtyList, fileRef{f, fp})
		}
		fp.dirty |= facets
	}
}

// resetDirtyLocked clears the dirty set and (re)enables tracking — called
// under m.mu by the persistence layer once a save or load has synchronized
// the model with its checkpoint store.
func (m *Model) resetDirtyLocked() {
	m.dirtyOn = true
	for _, r := range m.dirtyList {
		r.fp.dirty = 0
	}
	m.dirtyList = m.dirtyList[:0]
}

// DirtyFiles reports how many files have pending dirty marks — the size of
// the next incremental checkpoint.
func (m *Model) DirtyFiles() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.dirtyList)
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
	m.gcfg = cfg.Graph.Normalized()
	m.extractor = ex
	m.files = make(map[trace.FileID]*file)
	m.hits = make([]hit, m.gcfg.Window)
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
func (m *Model) notifyListChange(fp *file, f trace.FileID) {
	m.markDirty(fp, f, facetList)
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
	v := m.vectorOf(m.file(r.File), r.File)
	m.extractor.ExtractInto(r, v)

	// Stage 2: Constructing. Credit every file in the lookahead window, the
	// newest first: the order LDA assigns in and a full node evicts by.
	for i := len(m.window) - 1; i >= 0; i-- {
		if pred := m.window[i]; pred != r.File {
			fp := m.file(pred)
			m.hits[i] = hit{fp, m.credit(fp, pred, r.File, m.gcfg.Credit(len(m.window)-i))}
		}
	}

	// Stage 3+4: Mining & Evaluating + Sorting, for each predecessor whose
	// edge to r.File just changed — after all of Stage 2, so a predecessor
	// in two window slots is evaluated twice on the credit of both. (Both of
	// its hits name one slot: the two credits went to the same edge.)
	for i, pred := range m.window {
		if pred != r.File {
			m.evaluate(m.hits[i].fp, pred, r.File, m.hits[i].slot, v)
		}
	}

	// The window is the normalized one LDA credits over: evaluating
	// predecessors that no longer earn credit would only recompute unchanged
	// degrees.
	m.window = append(m.window, r.File)
	if w := m.gcfg.Window; len(m.window) > w {
		copy(m.window, m.window[1:])
		m.window = m.window[:w]
	}
	m.fed++
}

// vectorOf returns where the vector of f, whose record is fp, is stored, for a
// fresh one. Callers hold m.mu.
func (m *Model) vectorOf(fp *file, f trace.FileID) *vsm.Vector {
	fp.have |= facetVec
	m.markDirty(fp, f, facetVec)
	return &fp.vec
}

// credit is Stage 2 for one edge: it adds w LDA credit to the edge toward
// succ of pred, whose record is fp, and returns the edge's slot in fp.node:
// -1 when a full node kept its stronger edges. Callers hold m.mu.
func (m *Model) credit(fp *file, pred, succ trace.FileID, w float64) int {
	m.markDirty(fp, pred, facetGraph)
	if !(w > 0) || pred == succ {
		return fp.node.Find(succ) // nothing to add; the pair is re-evaluated all the same
	}
	fp.have |= facetGraph
	return fp.node.Add(succ, w, m.gcfg.MaxSuccessors)
}

// evaluate is Stages 3 and 4 for one edge: it recomputes R(pred, succ) from
// pred's record fp — its stored vector against succ's, vs (shipped with the
// event: the shard owning pred does not store it), and the edge credit just
// returned the slot of — and moves succ to its rank in pred's Correlator
// List. Callers hold m.mu.
func (m *Model) evaluate(fp *file, pred, succ trace.FileID, slot int, vs *vsm.Vector) {
	var sim, freq float64
	if fp.have&facetVec != 0 {
		sim = vsm.Sim(&fp.vec, vs, m.cfg.PathAlg)
	}
	if slot >= 0 && fp.node.Total != 0 {
		freq = fp.node.Edges[slot].Weight / fp.node.Total // F = N_xy / N_x
	}
	degree := m.cfg.Weight*sim + (1-m.cfg.Weight)*freq

	list := fp.list
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
			fp.list = append(list[:idx], list[idx+1:]...)
			if len(fp.list) == 0 {
				fp.list = nil
				fp.have &^= facetList
			}
			m.notifyListChange(fp, pred)
		}
		return
	}
	fp.list = placeCorrelator(list, idx, Correlator{File: succ, Degree: degree, Sim: sim, Freq: freq}, m.cfg.MaxCorrelators)
	fp.have |= facetList
	m.notifyListChange(fp, pred)
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
	list := m.listLocked(f)
	if len(list) == 0 {
		return nil
	}
	return append([]Correlator(nil), list...)
}

// listLocked returns f's Correlator List itself, not a copy. Callers hold
// m.mu.
func (m *Model) listLocked(f trace.FileID) []Correlator {
	if fp := m.files[f]; fp != nil {
		return fp.list
	}
	return nil
}

// Predict returns up to k successor files of f in decreasing correlation
// degree — the prefetch candidates FPA issues for a demand access to f.
func (m *Model) Predict(f trace.FileID, k int) []trace.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	list := m.listLocked(f)
	if k = min(k, len(list)); k <= 0 {
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
	for _, c := range m.listLocked(x) {
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
type Stats struct {
	Fed          uint64
	TrackedFiles int // files with a stored semantic vector
	Lists        int // files with a non-empty Correlator List
	Correlators  int // total list entries
	GraphNodes   int
	GraphEdges   int
	MemoryBytes  int64 // estimated footprint of correlation state
}

// Stats returns a snapshot of the model's footprint.
func (m *Model) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Stats{Fed: m.fed}
	// Correlator list entries: File + Degree + Sim + Freq.
	const corrBytes = 32
	const listOverhead = 48
	const vecOverhead = 64 // the tags and their count, beside what PR 16 charged
	var tok [16]byte       // a token's bytes, spelled to be counted: Table 4 charges every vector its token list
	for _, fp := range m.files {
		if fp.have&facetList != 0 {
			s.Lists++
			s.Correlators += len(fp.list)
		}
		if fp.have&facetGraph != 0 {
			s.GraphNodes++
			s.GraphEdges += len(fp.node.Edges)
			s.MemoryBytes += fp.node.MemoryBytes()
		}
		if fp.have&facetVec != 0 {
			s.TrackedFiles++
			s.MemoryBytes += vecOverhead + int64(len(fp.vec.Path))
			for i := range fp.vec.NumScalars() {
				s.MemoryBytes += int64(len(fp.vec.AppendScalar(tok[:0], i))) + 16
			}
		}
	}
	s.MemoryBytes += int64(s.Correlators)*corrBytes + int64(s.Lists)*listOverhead
	return s
}

// Vector returns the last semantic vector extracted for a file and whether
// the file has been seen.
func (m *Model) Vector(f trace.FileID) (vsm.Vector, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if fp := m.files[f]; fp != nil && fp.have&facetVec != 0 {
		return fp.vec, true
	}
	return vsm.Vector{}, false
}

// ResetWindow forgets the current lookahead window (stream boundary) while
// keeping all mined knowledge.
func (m *Model) ResetWindow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.window = m.window[:0]
}

// WindowTail returns a copy of the current lookahead window, oldest first.
func (m *Model) WindowTail() []trace.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]trace.FileID(nil), m.window...)
}
