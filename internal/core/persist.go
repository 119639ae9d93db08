package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// Persistence: the HUSt prototype stores file correlation information —
// Correlator Lists and the semantic vectors backing them — in Berkeley DB
// (paper §5.1). SaveTo/LoadFrom provide the same round trip against the
// repository's kvstore so a mined model survives MDS restarts.
//
// Key layout (all keys are prefixed so model state can share a store with
// file metadata):
//
//	c/<fileID>  Correlator List: count, then (file, degree, sim, freq)*
//	v/<fileID>  semantic vector: scalar count, scalars, path
//	g/<fileID>  correlation-graph node: total N_x, count, (to, N_xy)*
//	m/config    weight, maxStrength, fed counter
//	m/window    lookahead window: count, file ids (oldest first)
//
// The graph node and window records make a checkpoint COMPLETE: a model
// restored from one mines every subsequent record bit-identically to the
// model that wrote it. (Stores written before these records existed still
// load — the graph and window simply start empty, which is the old
// behavior.) That completeness is what farmerd replication rests on: a
// follower bootstraps from the primary's checkpoint and then continues from
// the live record stream with no divergence window.

const (
	keyPrefixList   = "c/"
	keyPrefixVector = "v/"
	keyPrefixGraph  = "g/"
	keyConfig       = "m/config"
	keyWindow       = "m/window"
	keyEpoch        = "m/epoch"
)

// kvWriter is the mutation surface a checkpoint stages into — satisfied by
// *kvstore.Store (legacy direct writes) and *kvstore.Batch (atomic
// checkpoint commits, the only writer the save paths use now).
type kvWriter interface {
	Put(key, value []byte) error
	Delete(key []byte) error
}

// stageEpoch writes the m/epoch record: a counter incremented by every
// completed checkpoint plus the stream position (fed counter) it cut at.
// An incremental save is valid only against the exact epoch its in-memory
// dirty sets were accumulated since — a store rewritten by anyone else in
// between (restore tooling, another process) shows a different epoch and
// forces a full rewrite instead of a silently diverging delta.
func stageEpoch(w kvWriter, epoch, pos uint64) error {
	buf := make([]byte, 0, 16)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, pos)
	if err := w.Put([]byte(keyEpoch), buf); err != nil {
		return fmt.Errorf("core: saving epoch: %w", err)
	}
	return nil
}

// readEpoch reads the m/epoch record; ok=false means the store predates
// epochs (or is empty), which loads fine and simply disqualifies deltas.
func readEpoch(s *kvstore.Store) (epoch, pos uint64, ok bool, err error) {
	raw, found := s.Get([]byte(keyEpoch))
	if !found {
		return 0, 0, false, nil
	}
	if len(raw) != 16 {
		return 0, 0, false, fmt.Errorf("core: corrupt persisted epoch (%d bytes)", len(raw))
	}
	return binary.LittleEndian.Uint64(raw[0:8]), binary.LittleEndian.Uint64(raw[8:16]), true, nil
}

// prefixEnd returns the exclusive upper Scan bound covering every key that
// starts with prefix: the prefix with its last byte incremented. (The old
// prefix+"\xff" bound excluded keys whose FileID top byte is 0xff — those
// sort after "\xff" itself — silently losing files >= 0xff000000 on reload.)
func prefixEnd(prefix string) []byte {
	end := []byte(prefix)
	end[len(end)-1]++
	return end
}

func listKey(f trace.FileID) []byte {
	k := make([]byte, len(keyPrefixList)+4)
	copy(k, keyPrefixList)
	binary.BigEndian.PutUint32(k[len(keyPrefixList):], uint32(f))
	return k
}

func vectorKey(f trace.FileID) []byte {
	k := make([]byte, len(keyPrefixVector)+4)
	copy(k, keyPrefixVector)
	binary.BigEndian.PutUint32(k[len(keyPrefixVector):], uint32(f))
	return k
}

func graphKey(f trace.FileID) []byte {
	k := make([]byte, len(keyPrefixGraph)+4)
	copy(k, keyPrefixGraph)
	binary.BigEndian.PutUint32(k[len(keyPrefixGraph):], uint32(f))
	return k
}

// SaveTo writes the model's complete mined state (Correlator Lists, semantic
// vectors, the correlation graph, the lookahead window and the tunables
// needed to keep mining) into the store as ONE atomic batch — a crash
// mid-save leaves the previous checkpoint intact. Repeated saves into the
// same store are checkpoints: stale keys from a previous save — lists the
// threshold filter has since dropped — are pruned, so the store always holds
// exactly the model's current state. A completed save (re)binds the model's
// dirty tracking to the store, so a later SaveDelta can write just the
// changes.
func (m *Model) SaveTo(s *kvstore.Store) error {
	epoch, _, _, err := readEpoch(s)
	if err != nil {
		return err
	}
	saved := newSavedKeys()
	err = s.Batch(func(b *kvstore.Batch) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := m.stageStateLocked(b, saved); err != nil {
			return err
		}
		if err := saved.prune(s, b); err != nil {
			return err
		}
		if err := stageWindow(b, m.window); err != nil {
			return err
		}
		if err := stageConfig(b, m.cfg.Weight, m.cfg.MaxStrength, m.fed); err != nil {
			return err
		}
		if err := stageEpoch(b, epoch+1, m.fed); err != nil {
			return err
		}
		m.resetDirtyLocked()
		m.ckptStore, m.saveEpoch = s, epoch+1
		return nil
	})
	if err != nil {
		m.mu.Lock()
		m.ckptStore = nil
		m.mu.Unlock()
		return err
	}
	return nil
}

// SaveDelta writes only the keys dirtied since the last completed save —
// puts for facets still present, tombstone deletes for dropped ones — plus
// the always-small window/config/epoch records, as one atomic batch: the
// O(touched) checkpoint. It requires s to be the very store, at the very
// epoch, the model's dirty sets were accumulated against; on any mismatch
// (first save, a different store, an epoch someone else advanced) it
// transparently falls back to a full SaveTo. Returns whether the delta path
// ran.
func (m *Model) SaveDelta(s *kvstore.Store) (bool, error) {
	m.mu.RLock()
	bound := m.dirtyOn && m.ckptStore == s
	boundEpoch := m.saveEpoch
	m.mu.RUnlock()
	if bound {
		epoch, _, ok, err := readEpoch(s)
		if err != nil || !ok || epoch != boundEpoch {
			bound = false
		}
	}
	if !bound {
		return false, m.SaveTo(s)
	}
	err := s.Batch(func(b *kvstore.Batch) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := m.stageDeltaLocked(b); err != nil {
			return err
		}
		if err := stageWindow(b, m.window); err != nil {
			return err
		}
		if err := stageConfig(b, m.cfg.Weight, m.cfg.MaxStrength, m.fed); err != nil {
			return err
		}
		if err := stageEpoch(b, boundEpoch+1, m.fed); err != nil {
			return err
		}
		m.resetDirtyLocked()
		m.saveEpoch = boundEpoch + 1
		return nil
	})
	if err != nil {
		m.mu.Lock()
		m.ckptStore = nil
		m.mu.Unlock()
		return false, err
	}
	return true, nil
}

// savedKeys tracks which list/vector/graph keys a checkpoint wrote, so prune
// can delete the store's leftovers from earlier checkpoints (a list dropped
// by the validity filter must not resurrect on reload).
type savedKeys struct {
	lists  map[trace.FileID]struct{}
	vecs   map[trace.FileID]struct{}
	graphs map[trace.FileID]struct{}
}

func newSavedKeys() *savedKeys {
	return &savedKeys{
		lists:  make(map[trace.FileID]struct{}),
		vecs:   make(map[trace.FileID]struct{}),
		graphs: make(map[trace.FileID]struct{}),
	}
}

// prune stages deletes into w for every list/vector/graph key present in
// the store but absent from a just-staged full save — the full-rewrite
// leftovers sweep. Reads scan the store directly (a Batch's staged records
// are invisible to Scan, which is exactly right: the scan sees the PREVIOUS
// checkpoint's keys).
func (sk *savedKeys) prune(s *kvstore.Store, w kvWriter) error {
	var stale [][]byte
	collect := func(prefix string, keep map[trace.FileID]struct{}) {
		s.Scan([]byte(prefix), prefixEnd(prefix), func(k, v []byte) bool {
			if len(k) == len(prefix)+4 {
				f := trace.FileID(binary.BigEndian.Uint32(k[len(prefix):]))
				if _, ok := keep[f]; ok {
					return true
				}
			}
			stale = append(stale, append([]byte(nil), k...))
			return true
		})
	}
	collect(keyPrefixList, sk.lists)
	collect(keyPrefixVector, sk.vecs)
	collect(keyPrefixGraph, sk.graphs)
	for _, k := range stale {
		if err := w.Delete(k); err != nil {
			return fmt.Errorf("core: pruning stale key %q: %w", k, err)
		}
	}
	return nil
}

// appendListValue encodes one Correlator List in the c/ record format.
func appendListValue(dst []byte, list []Correlator) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(list)))
	for _, c := range list {
		dst = le.AppendUint32(dst, uint32(c.File))
		dst = le.AppendUint64(dst, math.Float64bits(c.Degree))
		dst = le.AppendUint64(dst, math.Float64bits(c.Sim))
		dst = le.AppendUint64(dst, math.Float64bits(c.Freq))
	}
	return dst
}

// appendVectorValue encodes one semantic vector in the v/ record format.
func appendVectorValue(dst []byte, v *vsm.Vector) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(v.Scalars)))
	for _, sc := range v.Scalars {
		dst = le.AppendUint32(dst, uint32(len(sc)))
		dst = append(dst, sc...)
	}
	dst = le.AppendUint32(dst, uint32(len(v.Path)))
	dst = append(dst, v.Path...)
	return dst
}

// appendGraphValue encodes one correlation-graph node in the g/ record
// format.
func appendGraphValue(dst []byte, total float64, edges []graph.Edge) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, math.Float64bits(total))
	dst = le.AppendUint32(dst, uint32(len(edges)))
	for _, e := range edges {
		dst = le.AppendUint32(dst, uint32(e.To))
		dst = le.AppendUint64(dst, math.Float64bits(e.Weight))
	}
	return dst
}

// stageStateLocked stages the model's complete lists, vectors and graph (no
// config record) — the per-shard half of a merged ensemble save — recording
// each written key in saved for the caller's prune. Encoding is direct
// appends on one reused scratch slice (the writer copies what it stages);
// the old bytes.Buffer + reflection-driven binary.Write path allocated per
// field on every key of every checkpoint. Callers hold m.mu.
func (m *Model) stageStateLocked(w kvWriter, saved *savedKeys) error {
	scratch := make([]byte, 0, 512)
	for f, list := range m.lists {
		scratch = appendListValue(scratch[:0], list)
		if err := w.Put(listKey(f), scratch); err != nil {
			return fmt.Errorf("core: saving list %d: %w", f, err)
		}
		saved.lists[f] = struct{}{}
	}
	for f, v := range m.vectors {
		scratch = appendVectorValue(scratch[:0], &v)
		if err := w.Put(vectorKey(f), scratch); err != nil {
			return fmt.Errorf("core: saving vector %d: %w", f, err)
		}
		saved.vecs[f] = struct{}{}
	}
	var gerr error
	m.g.Export(func(from trace.FileID, total float64, edges []graph.Edge) bool {
		scratch = appendGraphValue(scratch[:0], total, edges)
		if gerr = w.Put(graphKey(from), scratch); gerr != nil {
			gerr = fmt.Errorf("core: saving graph node %d: %w", from, gerr)
			return false
		}
		saved.graphs[from] = struct{}{}
		return true
	})
	return gerr
}

// stageDeltaLocked stages only the dirty files: for each marked facet, a Put
// of its current encoding when the model still holds it, a tombstone Delete
// when it dropped (a list the validity filter emptied must not resurrect on
// reload). Callers hold m.mu.
func (m *Model) stageDeltaLocked(w kvWriter) error {
	scratch := make([]byte, 0, 512)
	for f, bits := range m.dirty {
		if bits&dirtyList != 0 {
			if list, ok := m.lists[f]; ok {
				scratch = appendListValue(scratch[:0], list)
				if err := w.Put(listKey(f), scratch); err != nil {
					return fmt.Errorf("core: saving list %d: %w", f, err)
				}
			} else if err := w.Delete(listKey(f)); err != nil {
				return fmt.Errorf("core: tombstoning list %d: %w", f, err)
			}
		}
		if bits&dirtyVec != 0 {
			if v, ok := m.vectors[f]; ok {
				scratch = appendVectorValue(scratch[:0], &v)
				if err := w.Put(vectorKey(f), scratch); err != nil {
					return fmt.Errorf("core: saving vector %d: %w", f, err)
				}
			} else if err := w.Delete(vectorKey(f)); err != nil {
				return fmt.Errorf("core: tombstoning vector %d: %w", f, err)
			}
		}
		if bits&dirtyGraph != 0 {
			if total, edges, ok := m.g.ExportNode(f); ok {
				scratch = appendGraphValue(scratch[:0], total, edges)
				if err := w.Put(graphKey(f), scratch); err != nil {
					return fmt.Errorf("core: saving graph node %d: %w", f, err)
				}
			} else if err := w.Delete(graphKey(f)); err != nil {
				return fmt.Errorf("core: tombstoning graph node %d: %w", f, err)
			}
		}
	}
	return nil
}

// stageWindow stages the m/window record (count + file ids, oldest first).
func stageWindow(w kvWriter, win []trace.FileID) error {
	buf := make([]byte, 0, 4+4*len(win))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(win)))
	for _, f := range win {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
	}
	if err := w.Put([]byte(keyWindow), buf); err != nil {
		return fmt.Errorf("core: saving window: %w", err)
	}
	return nil
}

// readWindow reads the m/window record; an absent record (a pre-window
// store) is an empty window.
func readWindow(s *kvstore.Store) ([]trace.FileID, error) {
	raw, ok := s.Get([]byte(keyWindow))
	if !ok {
		return nil, nil
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("core: corrupt persisted window (%d bytes)", len(raw))
	}
	// Compare in int, not uint32: 4*n wraps at n >= 2^30, which would let a
	// corrupt count pass the check and panic on the slice below.
	n := int(binary.LittleEndian.Uint32(raw[:4]))
	if len(raw)-4 != 4*n {
		return nil, fmt.Errorf("core: corrupt persisted window: %d ids in %d bytes", n, len(raw))
	}
	w := make([]trace.FileID, n)
	for i := range w {
		w[i] = trace.FileID(binary.LittleEndian.Uint32(raw[4+4*i:]))
	}
	return w, nil
}

// stageConfig stages the m/config record binding a saved state to its
// mining parameters and ingest counter.
func stageConfig(w kvWriter, weight, maxStrength float64, fed uint64) error {
	buf := make([]byte, 0, 24)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(weight))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(maxStrength))
	buf = binary.LittleEndian.AppendUint64(buf, fed)
	if err := w.Put([]byte(keyConfig), buf); err != nil {
		return fmt.Errorf("core: saving config: %w", err)
	}
	return nil
}

// ReadSavedConfig reports the mining parameters and ingest position a
// store's checkpoint was saved with — how a catch-up installer pre-checks
// compatibility before discarding its own state for the incoming one.
func ReadSavedConfig(s *kvstore.Store) (weight, maxStrength float64, fed uint64, err error) {
	return readConfig(s)
}

// readConfig reads and decodes the m/config record.
func readConfig(s *kvstore.Store) (weight, maxStrength float64, fed uint64, err error) {
	raw, ok := s.Get([]byte(keyConfig))
	if !ok {
		return 0, 0, 0, fmt.Errorf("core: store has no persisted model")
	}
	if len(raw) != 24 {
		return 0, 0, 0, fmt.Errorf("core: corrupt persisted config (%d bytes)", len(raw))
	}
	weight = math.Float64frombits(binary.LittleEndian.Uint64(raw[0:8]))
	maxStrength = math.Float64frombits(binary.LittleEndian.Uint64(raw[8:16]))
	fed = binary.LittleEndian.Uint64(raw[16:24])
	return weight, maxStrength, fed, nil
}

// LoadFrom restores mined state saved by SaveTo into a freshly-constructed
// model. The model's configuration must match the persisted weight and
// threshold (guarding against silently mixing incompatible parameters).
func (m *Model) LoadFrom(s *kvstore.Store) error {
	weight, strength, fed, err := readConfig(s)
	if err != nil {
		return err
	}
	epoch, _, _, err := readEpoch(s)
	if err != nil {
		return err
	}
	if weight != m.cfg.Weight || strength != m.cfg.MaxStrength {
		return fmt.Errorf("core: persisted parameters (p=%v, max_strength=%v) differ from model (p=%v, max_strength=%v)",
			weight, strength, m.cfg.Weight, m.cfg.MaxStrength)
	}

	// Decode outside the lock, install atomically: a concurrent reader sees
	// either the pre-load or the fully loaded model, never a half-restored
	// one.
	lists := make(map[trace.FileID][]Correlator)
	vecs := make(map[trace.FileID]vsm.Vector)
	type gnode struct {
		total float64
		edges []graph.Edge
	}
	gnodes := make(map[trace.FileID]gnode)
	if err := scanState(s,
		func(f trace.FileID, list []Correlator) { lists[f] = list },
		func(f trace.FileID, vec vsm.Vector) { vecs[f] = vec },
		func(f trace.FileID, total float64, edges []graph.Edge) { gnodes[f] = gnode{total, edges} },
	); err != nil {
		return err
	}
	window, err := readWindow(s)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.fed = fed
	for f, list := range lists {
		m.lists[f] = list
		m.notifyListChange(f)
	}
	for f, vec := range vecs {
		m.vectors[f] = vec
	}
	for f, n := range gnodes {
		m.g.RestoreNode(f, n.total, n.edges)
	}
	// The model now equals the store: future mutations are a delta against
	// this epoch (a pre-epoch store leaves saveEpoch 0, which SaveDelta
	// refuses — the first post-load save is full and establishes one).
	m.resetDirtyLocked()
	m.ckptStore, m.saveEpoch = s, epoch
	m.mu.Unlock()
	m.PrimeWindow(window)
	return nil
}

// scanState decodes every persisted list, vector and graph node, handing
// each to the callback that installs it — shared by the whole-model and
// routed (per-owning-shard) load paths. putGraph may be nil to skip graph
// records.
func scanState(s *kvstore.Store,
	putList func(trace.FileID, []Correlator),
	putVec func(trace.FileID, vsm.Vector),
	putGraph func(trace.FileID, float64, []graph.Edge)) error {
	var loadErr error
	s.Scan([]byte(keyPrefixList), prefixEnd(keyPrefixList), func(k, v []byte) bool {
		if len(k) != len(keyPrefixList)+4 {
			loadErr = fmt.Errorf("core: bad list key %q", k)
			return false
		}
		f := trace.FileID(binary.BigEndian.Uint32(k[len(keyPrefixList):]))
		list, err := decodeList(v)
		if err != nil {
			loadErr = fmt.Errorf("core: list %d: %w", f, err)
			return false
		}
		putList(f, list)
		return true
	})
	if loadErr != nil {
		return loadErr
	}
	s.Scan([]byte(keyPrefixVector), prefixEnd(keyPrefixVector), func(k, v []byte) bool {
		if len(k) != len(keyPrefixVector)+4 {
			loadErr = fmt.Errorf("core: bad vector key %q", k)
			return false
		}
		f := trace.FileID(binary.BigEndian.Uint32(k[len(keyPrefixVector):]))
		vec, err := decodeVector(v)
		if err != nil {
			loadErr = fmt.Errorf("core: vector %d: %w", f, err)
			return false
		}
		putVec(f, vec)
		return true
	})
	if loadErr != nil || putGraph == nil {
		return loadErr
	}
	s.Scan([]byte(keyPrefixGraph), prefixEnd(keyPrefixGraph), func(k, v []byte) bool {
		if len(k) != len(keyPrefixGraph)+4 {
			loadErr = fmt.Errorf("core: bad graph key %q", k)
			return false
		}
		f := trace.FileID(binary.BigEndian.Uint32(k[len(keyPrefixGraph):]))
		total, edges, err := decodeGraphNode(v)
		if err != nil {
			loadErr = fmt.Errorf("core: graph node %d: %w", f, err)
			return false
		}
		putGraph(f, total, edges)
		return true
	})
	return loadErr
}

// SaveMerged writes the ensemble's complete mined state as ONE logical
// model. Shard state is disjoint, so the union of the per-shard lists and
// vectors under the ordinary key layout is exactly what a single Model
// mining the same stream would save: a merged save is loadable by
// Model.LoadFrom, and by LoadMerged at ANY stripe count or partitioner —
// the persistence half of resizing a cluster between runs.
//
// SaveMerged holds the dispatch lock, so a checkpoint taken while other
// goroutines Feed captures a consistent cut of the stream: state and the
// fed counter as of some exact record boundary, never a snapshot torn
// across shards. Like a previous save's checkpoint, stale keys are pruned.
// The whole checkpoint commits as one atomic kvstore batch, and a completed
// save (re)binds the ensemble's dirty tracking to the store so the next
// SaveCheckpoint can write just the delta.
// (Events applied through ApplyExternal bypass the local dispatcher; a
// server mined remotely should quiesce its owner before checkpointing.)
func (s *ShardedModel) SaveMerged(st *kvstore.Store) error {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.saveMergedLocked(st)
}

func (s *ShardedModel) saveMergedLocked(st *kvstore.Store) error {
	epoch, _, _, err := readEpoch(st)
	if err != nil {
		return err
	}
	saved := newSavedKeys()
	err = st.Batch(func(b *kvstore.Batch) error {
		for _, m := range s.shards {
			m.mu.Lock()
			serr := m.stageStateLocked(b, saved)
			if serr == nil {
				m.resetDirtyLocked()
			}
			m.mu.Unlock()
			if serr != nil {
				return serr
			}
		}
		if err := saved.prune(st, b); err != nil {
			return err
		}
		if err := stageWindow(b, s.windowTailLocked()); err != nil {
			return err
		}
		if err := stageConfig(b, s.cfg.Weight, s.cfg.MaxStrength, s.disp.Dispatched()); err != nil {
			return err
		}
		return stageEpoch(b, epoch+1, s.disp.Dispatched())
	})
	if err != nil {
		s.ckptStore = nil
		return err
	}
	s.ckptStore, s.saveEpoch = st, epoch+1
	return nil
}

// SaveCheckpoint writes the cheapest valid checkpoint into st: the dirty-key
// delta when st is the store (at the epoch) the last completed save or load
// synchronized with, a full SaveMerged otherwise. It reports whether the
// delta path ran — the caller's cue that compaction is unnecessary. This is
// the method a periodically checkpointing daemon should use: its cost tracks
// the write rate between checkpoints, not the model size.
func (s *ShardedModel) SaveCheckpoint(st *kvstore.Store) (incremental bool, err error) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if s.ckptStore != st || s.saveEpoch == 0 {
		return false, s.saveMergedLocked(st)
	}
	epoch, _, ok, err := readEpoch(st)
	if err != nil || !ok || epoch != s.saveEpoch {
		return false, s.saveMergedLocked(st)
	}
	err = st.Batch(func(b *kvstore.Batch) error {
		for _, m := range s.shards {
			m.mu.Lock()
			serr := m.stageDeltaLocked(b)
			if serr == nil {
				m.resetDirtyLocked()
			}
			m.mu.Unlock()
			if serr != nil {
				return serr
			}
		}
		if err := stageWindow(b, s.windowTailLocked()); err != nil {
			return err
		}
		if err := stageConfig(b, s.cfg.Weight, s.cfg.MaxStrength, s.disp.Dispatched()); err != nil {
			return err
		}
		return stageEpoch(b, epoch+1, s.disp.Dispatched())
	})
	if err != nil {
		s.ckptStore = nil
		return false, err
	}
	s.saveEpoch = epoch + 1
	return true, nil
}

// windowTailLocked reads the ensemble's live lookahead window holding dmu:
// the dispatcher's window when dispatch routes events, the lone Model's own
// window on the single-shard fast path (which bypasses the dispatcher).
func (s *ShardedModel) windowTailLocked() []trace.FileID {
	if len(s.shards) == 1 {
		return s.shards[0].WindowTail()
	}
	return s.disp.Window()
}

// WindowTail returns a copy of the ensemble's lookahead window, oldest
// first.
func (s *ShardedModel) WindowTail() []trace.FileID {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.windowTailLocked()
}

// PrimeWindow replaces the ensemble's lookahead window without feeding — the
// restore half of WindowTail (see Model.PrimeWindow).
func (s *ShardedModel) PrimeWindow(w []trace.FileID) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	s.primeWindowLocked(w)
}

func (s *ShardedModel) primeWindowLocked(w []trace.FileID) {
	if len(s.shards) == 1 {
		s.shards[0].PrimeWindow(w)
		return
	}
	s.disp.PrimeWindow(w)
}

// LoadMerged restores a merged save into a freshly-constructed ensemble —
// enforced: an ensemble that has already ingested refuses the load (it
// would merge two models and double-count the fed counter) — rebalancing
// every list and vector onto the shard the ensemble's current partitioner
// assigns it to. The stripe count and partitioner may differ
// freely from the ones that produced the save (that is the point); the
// mining parameters must match, as in LoadFrom. Predictions after a load
// are identical at any stripe count.
func (s *ShardedModel) LoadMerged(st *kvstore.Store) error {
	weight, strength, fed, err := readConfig(st)
	if err != nil {
		return err
	}
	if weight != s.cfg.Weight || strength != s.cfg.MaxStrength {
		return fmt.Errorf("core: persisted parameters (p=%v, max_strength=%v) differ from model (p=%v, max_strength=%v)",
			weight, strength, s.cfg.Weight, s.cfg.MaxStrength)
	}
	// Route while decoding, install each shard under one lock — readers
	// observe the usual consistent-per-shard snapshot, never a shard caught
	// mid-restore. The dispatch lock excludes concurrent feeding for the
	// whole install, so the restored counter and state land atomically —
	// and the freshness check below cannot race a Feed (checking outside
	// the lock would let a record slip in between check and install,
	// merging models and double-counting the fed counter).
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if fedNow := s.disp.Dispatched(); fedNow > 0 {
		return fmt.Errorf("core: cannot load into an ensemble that has already ingested %d records", fedNow)
	}
	n := len(s.shards)
	lists := make([]map[trace.FileID][]Correlator, n)
	vecs := make([]map[trace.FileID]vsm.Vector, n)
	type gnode struct {
		total float64
		edges []graph.Edge
	}
	gnodes := make([]map[trace.FileID]gnode, n)
	for i := 0; i < n; i++ {
		lists[i] = make(map[trace.FileID][]Correlator)
		vecs[i] = make(map[trace.FileID]vsm.Vector)
		gnodes[i] = make(map[trace.FileID]gnode)
	}
	if err := scanState(st,
		func(f trace.FileID, list []Correlator) { lists[s.ownerOf(f)][f] = list },
		func(f trace.FileID, vec vsm.Vector) { vecs[s.ownerOf(f)][f] = vec },
		func(f trace.FileID, total float64, edges []graph.Edge) {
			gnodes[s.ownerOf(f)][f] = gnode{total, edges}
		},
	); err != nil {
		return err
	}
	window, err := readWindow(st)
	if err != nil {
		return err
	}
	for i, m := range s.shards {
		m.mu.Lock()
		for f, list := range lists[i] {
			m.lists[f] = list
			m.notifyListChange(f)
		}
		for f, vec := range vecs[i] {
			m.vectors[f] = vec
		}
		for f, gn := range gnodes[i] {
			m.g.RestoreNode(f, gn.total, gn.edges)
		}
		m.mu.Unlock()
	}
	if len(s.shards) == 1 {
		// Single-shard parity: the lone Model carries the ensemble's fed
		// counter, exactly as if it had mined the stream itself.
		m := s.shards[0]
		m.mu.Lock()
		m.fed = fed
		m.mu.Unlock()
	}
	s.primeWindowLocked(window)
	s.disp.Advance(fed)
	// The ensemble now equals the store: start dirty tracking so the next
	// SaveCheckpoint into this same store can be a delta. (A catch-up
	// install loads from a transient in-memory store; its binding simply
	// never matches the daemon's real store, forcing the next save full —
	// exactly right, since the real store knows nothing of this state.)
	epoch, _, _, err := readEpoch(st)
	if err != nil {
		return err
	}
	for _, m := range s.shards {
		m.mu.Lock()
		m.resetDirtyLocked()
		m.mu.Unlock()
	}
	s.ckptStore, s.saveEpoch = st, epoch
	return nil
}

func decodeList(raw []byte) ([]Correlator, error) {
	r := bytes.NewReader(raw)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) > len(raw)/28+1 {
		return nil, fmt.Errorf("unreasonable list length %d", n)
	}
	list := make([]Correlator, 0, n)
	for i := uint32(0); i < n; i++ {
		var f uint32
		var deg, sim, freq uint64
		if err := binary.Read(r, binary.LittleEndian, &f); err != nil {
			return nil, err
		}
		for _, dst := range []*uint64{&deg, &sim, &freq} {
			if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
				return nil, err
			}
		}
		list = append(list, Correlator{
			File:   trace.FileID(f),
			Degree: math.Float64frombits(deg),
			Sim:    math.Float64frombits(sim),
			Freq:   math.Float64frombits(freq),
		})
	}
	return list, nil
}

func decodeGraphNode(raw []byte) (total float64, edges []graph.Edge, err error) {
	if len(raw) < 12 {
		return 0, nil, fmt.Errorf("graph node value is %d bytes, want >= 12", len(raw))
	}
	le := binary.LittleEndian
	total = math.Float64frombits(le.Uint64(raw[:8]))
	// Compare in int, not uint32: 12*n wraps for large corrupt counts,
	// which would pass the check, demand a multi-GiB allocation and then
	// panic indexing raw — reachable from a hostile catch-up snapshot, so
	// this must be a decode error, never a crash.
	n := int(le.Uint32(raw[8:12]))
	if len(raw)-12 != 12*n {
		return 0, nil, fmt.Errorf("graph node: %d edges in %d bytes", n, len(raw))
	}
	edges = make([]graph.Edge, n)
	for i := range edges {
		off := 12 + 12*i
		edges[i] = graph.Edge{
			To:     trace.FileID(le.Uint32(raw[off:])),
			Weight: math.Float64frombits(le.Uint64(raw[off+4:])),
		}
		// Every writer emits edges in ascending id order. A record that
		// repeats (or reorders) a successor is refused: installed as it
		// stands, the repeat would sit in the node's edge table and be
		// credited apart from its twin, diverging Frequency from any
		// honestly mined model.
		if i > 0 && edges[i].To <= edges[i-1].To {
			return 0, nil, fmt.Errorf("graph node: edge %d to file %d after file %d, want ascending ids", i, edges[i].To, edges[i-1].To)
		}
	}
	return total, edges, nil
}

// Lister is the read surface a state fingerprint needs; Model and
// ShardedModel both satisfy it.
type Lister interface {
	CorrelatorList(f trace.FileID) []Correlator
}

// StateFingerprint hashes the complete mined correlation state over the
// dense FileID space [0, fileCount): list lengths, successor ids and the
// exact float64 bits of every degree component. Two miners agree on the
// fingerprint iff their Correlator Lists are bit-identical — the equality
// the replication layer verifies after a catch-up transfer and the replay
// harness asserts between deployment shapes.
func StateFingerprint(m Lister, fileCount int) uint64 {
	return fingerprintLists(m.CorrelatorList, fileCount)
}

// StoreFingerprint computes the StateFingerprint of the model state
// persisted in a store, without constructing a model — how a replication
// follower verifies a checkpoint snapshot BEFORE installing it.
func StoreFingerprint(st *kvstore.Store, fileCount int) (uint64, error) {
	lists := make(map[trace.FileID][]Correlator)
	if err := scanState(st,
		func(f trace.FileID, list []Correlator) { lists[f] = list },
		func(trace.FileID, vsm.Vector) {},
		nil,
	); err != nil {
		return 0, err
	}
	return fingerprintLists(func(f trace.FileID) []Correlator { return lists[f] }, fileCount), nil
}

func fingerprintLists(get func(trace.FileID) []Correlator, fileCount int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for f := 0; f < fileCount; f++ {
		list := get(trace.FileID(f))
		if len(list) == 0 {
			continue
		}
		wr(uint64(f))
		wr(uint64(len(list)))
		for _, c := range list {
			wr(uint64(c.File))
			wr(math.Float64bits(c.Degree))
			wr(math.Float64bits(c.Sim))
			wr(math.Float64bits(c.Freq))
		}
	}
	return h.Sum64()
}

// trackedFileCount reports 1 + the highest FileID carrying any mined state
// (list, vector or graph node), holding m.mu.
func (m *Model) trackedFileCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	max := -1
	for f := range m.lists {
		if int(f) > max {
			max = int(f)
		}
	}
	for f := range m.vectors {
		if int(f) > max {
			max = int(f)
		}
	}
	m.g.Export(func(from trace.FileID, _ float64, _ []graph.Edge) bool {
		if int(from) > max {
			max = int(from)
		}
		return true
	})
	return max + 1
}

// TrackedFileCount reports 1 + the highest FileID the ensemble holds any
// mined state for — the dense fingerprint bound a checkpoint cut ships so
// both ends hash the same FileID space.
func (s *ShardedModel) TrackedFileCount() int {
	max := 0
	for _, m := range s.shards {
		if n := m.trackedFileCount(); n > max {
			max = n
		}
	}
	return max
}

func decodeVector(raw []byte) (vsm.Vector, error) {
	r := bytes.NewReader(raw)
	var v vsm.Vector
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return v, err
	}
	if int(n) > len(raw) {
		return v, fmt.Errorf("unreasonable scalar count %d", n)
	}
	readStr := func() (string, error) {
		var l uint32
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			return "", err
		}
		if int(l) > r.Len() {
			return "", fmt.Errorf("string length %d exceeds remaining %d", l, r.Len())
		}
		b := make([]byte, l)
		// io.ReadFull, not r.Read: an empty string at the end of the value
		// (every vector of a pathless trace) must decode as "", not EOF.
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	for i := uint32(0); i < n; i++ {
		sc, err := readStr()
		if err != nil {
			return v, err
		}
		v.Scalars = append(v.Scalars, sc)
	}
	path, err := readStr()
	if err != nil {
		return v, err
	}
	v.Path = path
	return v, nil
}
