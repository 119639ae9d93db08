package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"farmer/internal/bin"
	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// Persistence: the HUSt prototype stores file correlation information —
// Correlator Lists and the semantic vectors backing them — in Berkeley DB
// (paper §5.1). ShardedModel.SaveMerged/SaveCheckpoint/LoadMerged provide
// the same round trip against the repository's kvstore so a mined model
// survives MDS restarts. A lone Model persists as a 1-shard ensemble.
//
// Key layout (all keys are prefixed so model state can share a store with
// file metadata):
//
//	c/<fileID>  Correlator List: count, then (file, degree, sim, freq)*
//	v/<fileID>  semantic vector: scalar count, scalars, path
//	g/<fileID>  correlation-graph node: total N_x, count, (to, N_xy)*
//	m/config    weight, maxStrength, fed counter
//	m/window    lookahead window: count, file ids (oldest first)
//	m/epoch     checkpoint epoch, stream position
//
// Every value is read through a bin.Cursor and must be exact: a short value,
// an impossible count or trailing bytes fail the load. Values reach these
// decoders from a hostile catch-up snapshot as well as from a bad disk.
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

// statePrefixes are the per-file key spaces, in load order.
var statePrefixes = [...]string{keyPrefixList, keyPrefixVector, keyPrefixGraph}

// appendKey appends a per-file key: the prefix, then the id big-endian so a
// scan visits files in id order.
func appendKey(dst []byte, prefix string, f trace.FileID) []byte {
	return binary.BigEndian.AppendUint32(append(dst, prefix...), uint32(f))
}

// fileOfKey is appendKey's inverse; ok=false for a key of any other shape.
func fileOfKey(prefix string, k []byte) (f trace.FileID, ok bool) {
	if len(k) != len(prefix)+4 {
		return 0, false
	}
	return trace.FileID(binary.BigEndian.Uint32(k[len(prefix):])), true
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

// ---------------------------------------------------------------- values

// AppendCorrelators appends a Correlator List — u32 count, then (u32 file,
// u64 degree, u64 sim, u64 freq) with the float64 bit patterns — the one
// encoding behind the store's c/ records and the wire's list response.
func AppendCorrelators(dst []byte, list []Correlator) []byte {
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

// ReadCorrelators reads an AppendCorrelators list (nil when empty).
func ReadCorrelators(c *bin.Cursor) []Correlator {
	n := c.Count(28)
	if n == 0 {
		return nil
	}
	list := make([]Correlator, n)
	for i := range list {
		list[i] = Correlator{File: trace.FileID(c.U32()), Degree: c.F64(), Sim: c.F64(), Freq: c.F64()}
		// A NaN degree has no rank: the list order would stop being total.
		for _, x := range [...]float64{list[i].Degree, list[i].Sim, list[i].Freq} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				c.Failf("entry %d: non-finite component %v", i, x)
			}
		}
	}
	return list
}

func decodeList(raw []byte) ([]Correlator, error) {
	c := bin.Read("correlator list", raw)
	list := ReadCorrelators(&c)
	return list, c.Done()
}

func decodeVector(raw []byte) (vsm.Vector, error) {
	c := bin.Read("vector", raw)
	v := vsm.ReadVector(&c)
	return v, c.Done()
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

func decodeGraphNode(raw []byte) (total float64, edges []graph.Edge, err error) {
	c := bin.Read("graph node", raw)
	// N_x sums every credit the node ever gave, N_xy some of them: a mined
	// node has 0 <= N_xy <= N_x < +Inf. Anything else would turn F = N_xy/N_x
	// into a NaN or an Inf that the validity filter keeps.
	if total = c.F64(); !(total >= 0 && total <= math.MaxFloat64) {
		c.Failf("total %v", total)
	}
	edges = make([]graph.Edge, c.Count(12))
	for i := range edges {
		edges[i] = graph.Edge{To: trace.FileID(c.U32()), Weight: c.F64()}
		if w := edges[i].Weight; !(w >= 0 && w <= total) {
			c.Failf("edge %d weighs %v of a total %v", i, w, total)
		}
		// Every writer emits edges in ascending id order. A record that
		// repeats (or reorders) a successor is refused: installed as it
		// stands, the repeat would sit in the node's edge table and be
		// credited apart from its twin, diverging Frequency from any
		// honestly mined model.
		if i > 0 && edges[i].To <= edges[i-1].To {
			c.Failf("edge %d to file %d after file %d, want ascending ids", i, edges[i].To, edges[i-1].To)
		}
	}
	return total, edges, c.Done()
}

// stageMeta stages the three m/ records every checkpoint ends with: the
// lookahead window, the mining parameters with the ingest counter, and the
// epoch — a counter incremented by every completed checkpoint plus the
// stream position it cut at. An incremental save is valid only against the
// exact epoch its in-memory dirty sets were accumulated since — a store
// rewritten by anyone else in between (restore tooling, another process)
// shows a different epoch and forces a full rewrite instead of a silently
// diverging delta.
func stageMeta(b *kvstore.Batch, win []trace.FileID, weight, maxStrength float64, fed, epoch uint64) error {
	le := binary.LittleEndian
	config := le.AppendUint64(nil, math.Float64bits(weight))
	config = le.AppendUint64(config, math.Float64bits(maxStrength))
	config = le.AppendUint64(config, fed)
	epochRec := le.AppendUint64(nil, epoch)
	epochRec = le.AppendUint64(epochRec, fed)
	for _, rec := range [...]struct {
		key string
		val []byte
	}{
		{keyWindow, trace.AppendFileIDs(nil, win)},
		{keyConfig, config},
		{keyEpoch, epochRec},
	} {
		if err := b.Put([]byte(rec.key), rec.val); err != nil {
			return fmt.Errorf("core: saving %s: %w", rec.key, err)
		}
	}
	return nil
}

// readEpoch reads the m/epoch record; ok=false means the store predates
// epochs (or is empty), which loads fine and simply disqualifies deltas.
func readEpoch(s *kvstore.Store) (epoch uint64, ok bool, err error) {
	raw, found := s.Get([]byte(keyEpoch))
	if !found {
		return 0, false, nil
	}
	c := bin.Read("core: persisted epoch", raw)
	epoch, _ = c.U64(), c.U64() // the stream position is for people reading the store
	err = c.Done()
	return epoch, err == nil, err
}

// readWindow reads the m/window record; an absent record (a pre-window
// store) is an empty window.
func readWindow(s *kvstore.Store) ([]trace.FileID, error) {
	raw, ok := s.Get([]byte(keyWindow))
	if !ok {
		return nil, nil
	}
	c := bin.Read("core: persisted window", raw)
	w := trace.ReadFileIDs(&c)
	return w, c.Done()
}

// ReadSavedConfig reports the mining parameters and ingest position a
// store's checkpoint was saved with — how a load checks the checkpoint
// against the model, and how a catch-up installer pre-checks compatibility
// before discarding its own state for the incoming one.
func ReadSavedConfig(s *kvstore.Store) (weight, maxStrength float64, fed uint64, err error) {
	raw, ok := s.Get([]byte(keyConfig))
	if !ok {
		return 0, 0, 0, fmt.Errorf("core: store has no persisted model")
	}
	c := bin.Read("core: persisted config", raw)
	weight, maxStrength, fed = c.F64(), c.F64(), c.U64()
	return weight, maxStrength, fed, c.Done()
}

// ---------------------------------------------------------------- saving

// savedKeys is the set of per-file keys a full checkpoint wrote, so prune
// can delete the store's leftovers from earlier checkpoints (a list dropped
// by the validity filter must not resurrect on reload). A key is held as its
// prefix letter above its file id.
type savedKeys map[uint64]struct{}

func savedKey(prefix string, f trace.FileID) uint64 { return uint64(prefix[0])<<32 | uint64(f) }

// prune stages deletes into b for every list/vector/graph key present in
// the store but absent from a just-staged full save — the full-rewrite
// leftovers sweep. Reads scan the store directly (a Batch's staged records
// are invisible to Scan, which is exactly right: the scan sees the PREVIOUS
// checkpoint's keys).
func (sk savedKeys) prune(s *kvstore.Store, b *kvstore.Batch) error {
	var stale [][]byte
	for _, prefix := range statePrefixes {
		s.Scan([]byte(prefix), prefixEnd(prefix), func(k, v []byte) bool {
			if f, ok := fileOfKey(prefix, k); ok {
				if _, kept := sk[savedKey(prefix, f)]; kept {
					return true
				}
			}
			stale = append(stale, append([]byte(nil), k...))
			return true
		})
	}
	for _, k := range stale {
		if err := b.Delete(k); err != nil {
			return fmt.Errorf("core: pruning stale key %q: %w", k, err)
		}
	}
	return nil
}

// stager stages one shard's per-file records into a checkpoint batch.
// Keys and values are encoded in reused scratch (the batch copies what it
// stages; a node's edges sort in their own). saved is nil for a delta; errors
// stick.
type stager struct {
	b       *kvstore.Batch
	saved   savedKeys
	key     []byte
	scratch []byte
	edges   []graph.Edge
	err     error
}

// stage puts the scratch encoding under f's key in prefix — or, when the
// model no longer holds the facet a dirty mark named, stages the tombstone
// delete (a list the validity filter emptied must not resurrect on reload).
func (st *stager) stage(prefix string, f trace.FileID, present bool) {
	if st.err != nil {
		return
	}
	st.key = appendKey(st.key[:0], prefix, f)
	if present {
		st.err = st.b.Put(st.key, st.scratch)
	} else {
		st.err = st.b.Delete(st.key)
	}
	if st.err != nil {
		st.err = fmt.Errorf("core: staging %s%d: %w", prefix, f, st.err)
	} else if st.saved != nil {
		st.saved[savedKey(prefix, f)] = struct{}{}
	}
}

// file stages the named facets of f's record fp: a put for each it has, the
// tombstone delete for each it no longer does.
func (st *stager) file(f trace.FileID, fp *file, facets uint8) {
	if facets&facetList != 0 {
		st.scratch = AppendCorrelators(st.scratch[:0], fp.list)
		st.stage(keyPrefixList, f, fp.have&facetList != 0)
	}
	if facets&facetVec != 0 {
		st.scratch = vsm.AppendVector(st.scratch[:0], &fp.vec)
		st.stage(keyPrefixVector, f, fp.have&facetVec != 0)
	}
	if facets&facetGraph != 0 {
		st.edges = fp.node.SortedByID(st.edges)
		st.scratch = appendGraphValue(st.scratch[:0], fp.node.Total, st.edges)
		st.stage(keyPrefixGraph, f, fp.have&facetGraph != 0)
	}
}

// stageLocked stages this shard's half of a checkpoint: with st.saved set,
// every list, vector and graph node; without, only the facets marked dirty
// since the last completed save. Callers hold m.mu.
func (m *Model) stageLocked(st *stager) error {
	if st.saved == nil {
		for _, f := range m.dirtyIDs {
			fp := m.files[f]
			st.file(f, fp, fp.dirty)
		}
		return st.err
	}
	for f, fp := range m.files {
		st.file(f, fp, fp.have)
	}
	return st.err
}

// SaveMerged writes the ensemble's complete mined state as ONE logical
// model. Shard state is disjoint, so the union of the per-shard lists and
// vectors under the ordinary key layout is exactly what a single Model
// mining the same stream would save: a merged save is loadable by
// LoadMerged at ANY stripe count or partitioner — the persistence half of
// resizing a cluster between runs.
//
// SaveMerged holds the dispatch lock, so a checkpoint taken while other
// goroutines Feed captures a consistent cut of the stream: state and the
// fed counter as of some exact record boundary, never a snapshot torn
// across shards. Stale keys from a previous save — lists the threshold
// filter has since dropped — are pruned. The whole checkpoint commits as one
// atomic kvstore batch (a crash mid-save leaves the previous checkpoint
// intact), and a completed save (re)binds the ensemble's dirty tracking to
// the store so the next SaveCheckpoint can write just the delta.
func (s *ShardedModel) SaveMerged(st *kvstore.Store) error {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	_, err := s.checkpointLocked(st, false, true)
	return err
}

// SaveCopy writes what SaveMerged would into st but leaves dirty tracking
// and its bound store and epoch as they were, so the next SaveCheckpoint
// into the bound store is still a delta: a catch-up cut's copy.
func (s *ShardedModel) SaveCopy(st *kvstore.Store) error {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	_, err := s.checkpointLocked(st, false, false)
	return err
}

// SaveCheckpoint writes the cheapest valid checkpoint into st: the dirty-key
// delta — puts for facets still present, tombstone deletes for dropped ones
// — when st is the store (at the epoch) the last completed save or load
// synchronized with, a full SaveMerged otherwise. It reports whether the
// delta path ran; a full save is the fallback, and a caller compacting the
// log may want to follow one. This is the method a periodically
// checkpointing daemon uses: its cost tracks the write rate between
// checkpoints, not the model size.
func (s *ShardedModel) SaveCheckpoint(st *kvstore.Store) (incremental bool, err error) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.checkpointLocked(st, true, true)
}

// checkpointLocked is the one save path. A delta is staged only when asked
// for AND st is the very store, at the very epoch, the shards' dirty sets
// were accumulated against; anything else (first save, a different store,
// an epoch someone else advanced) is a full rewrite. Only a save that binds
// resets the dirty sets and (re)binds; if it fails, it unbinds, so the next
// one is full. Callers hold s.dmu.
func (s *ShardedModel) checkpointLocked(st *kvstore.Store, allowDelta, bind bool) (incremental bool, err error) {
	epoch, ok, err := readEpoch(st)
	if err != nil {
		return false, err
	}
	incremental = allowDelta && ok && s.ckptStore == st && s.saveEpoch != 0 && epoch == s.saveEpoch
	err = st.Batch(func(b *kvstore.Batch) error {
		stg := stager{b: b, scratch: make([]byte, 0, 512)}
		if !incremental {
			stg.saved = make(savedKeys)
		}
		for _, m := range s.shards {
			m.mu.Lock()
			serr := m.stageLocked(&stg)
			if serr == nil && bind {
				m.resetDirtyLocked()
			}
			m.mu.Unlock()
			if serr != nil {
				return serr
			}
		}
		if !incremental {
			if err := stg.saved.prune(st, b); err != nil {
				return err
			}
		}
		return stageMeta(b, s.disp.Window(), s.cfg.Weight, s.cfg.MaxStrength, s.disp.Dispatched(), epoch+1)
	})
	if bind && err != nil {
		s.ckptStore = nil
	} else if bind {
		s.ckptStore, s.saveEpoch = st, epoch+1
	}
	return incremental && err == nil, err
}

// WindowTail returns a copy of the ensemble's lookahead window, oldest
// first.
func (s *ShardedModel) WindowTail() []trace.FileID {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.disp.Window()
}

// PrimeWindow replaces the ensemble's lookahead window without feeding — the
// restore half of WindowTail: an ensemble bootstrapped from a checkpoint
// plus a primed window mines every subsequent record exactly as the
// checkpointed one would have.
func (s *ShardedModel) PrimeWindow(w []trace.FileID) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	s.disp.PrimeWindow(w)
}

// --------------------------------------------------------------- loading

// scanState decodes every persisted list, vector and graph node, handing
// each to the callback that installs it. putGraph may be nil to skip graph
// records.
func scanState(s *kvstore.Store,
	putList func(trace.FileID, []Correlator),
	putVec func(trace.FileID, vsm.Vector),
	putGraph func(trace.FileID, float64, []graph.Edge)) error {
	var err error
	for _, prefix := range statePrefixes {
		if prefix == keyPrefixGraph && putGraph == nil {
			continue
		}
		s.Scan([]byte(prefix), prefixEnd(prefix), func(k, v []byte) bool {
			f, ok := fileOfKey(prefix, k)
			if !ok {
				err = fmt.Errorf("core: bad key %q", k)
				return false
			}
			switch prefix {
			case keyPrefixList:
				var list []Correlator
				if list, err = decodeList(v); err == nil {
					putList(f, list)
				}
			case keyPrefixVector:
				var vec vsm.Vector
				if vec, err = decodeVector(v); err == nil {
					putVec(f, vec)
				}
			case keyPrefixGraph:
				var total float64
				var edges []graph.Edge
				if total, edges, err = decodeGraphNode(v); err == nil {
					putGraph(f, total, edges)
				}
			}
			if err != nil {
				err = fmt.Errorf("core: %s%d: %w", prefix, f, err)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadMerged restores a merged save into a freshly-constructed ensemble —
// enforced: an ensemble that has already ingested refuses the load (it
// would merge two models and double-count the fed counter) — rebalancing
// every list and vector onto the shard the ensemble's current partitioner
// assigns it to. The stripe count and partitioner may differ
// freely from the ones that produced the save (that is the point); the
// mining parameters must match the persisted weight and threshold (guarding
// against silently mixing incompatible parameters). Predictions after a
// load are identical at any stripe count.
func (s *ShardedModel) LoadMerged(st *kvstore.Store) error {
	weight, strength, fed, err := ReadSavedConfig(st)
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
	// One staged record per stored file, on the shard that will own it.
	staged := make([]map[trace.FileID]*file, len(s.shards))
	for i := range staged {
		staged[i] = make(map[trace.FileID]*file)
	}
	stage := func(f trace.FileID, facet uint8) *file {
		to := staged[s.ownerOf(f)]
		if to[f] == nil {
			to[f] = new(file)
		}
		to[f].have |= facet
		return to[f]
	}
	if err := scanState(st,
		func(f trace.FileID, list []Correlator) { stage(f, facetList).list = list },
		func(f trace.FileID, vec vsm.Vector) { vec.Presplit(); stage(f, facetVec).vec = vec },
		func(f trace.FileID, total float64, edges []graph.Edge) {
			stage(f, facetGraph).node = graph.Node{Total: total, Edges: edges}
		},
	); err != nil {
		return err
	}
	window, err := readWindow(st)
	if err != nil {
		return err
	}
	epoch, _, err := readEpoch(st)
	if err != nil {
		return err
	}
	for i, m := range s.shards {
		m.mu.Lock()
		for f, in := range staged[i] {
			fp := m.file(f)
			if in.have&facetList != 0 {
				fp.list = in.list
				m.notifyListChange(fp, f)
			}
			if in.have&facetVec != 0 {
				fp.vec = in.vec
			}
			if in.have&facetGraph != 0 {
				fp.node = in.node
			}
			fp.have |= in.have
		}
		// The shard now equals the store: start dirty tracking so the next
		// SaveCheckpoint into this same store can be a delta.
		m.resetDirtyLocked()
		m.mu.Unlock()
	}
	s.disp.PrimeWindow(window)
	s.disp.Advance(fed)
	// (A catch-up install loads from a transient in-memory store; its
	// binding simply never matches the daemon's real store, forcing the next
	// save full — exactly right, since the real store knows nothing of this
	// state. A pre-epoch store binds epoch 0, which a delta refuses too.)
	s.ckptStore, s.saveEpoch = st, epoch
	return nil
}

// ----------------------------------------------------------- fingerprints

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
			for _, part := range [...]float64{c.Degree, c.Sim, c.Freq} {
				wr(math.Float64bits(part))
			}
		}
	}
	return h.Sum64()
}

// trackedFileCount reports 1 + the highest FileID carrying any mined state
// (list, vector or graph node).
func (m *Model) trackedFileCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	max := -1
	for f, fp := range m.files {
		if fp.have != 0 && int(f) > max {
			max = int(f)
		}
	}
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
