package core

import (
	"bytes"
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
// The store holds the model alone: a full checkpoint replaces the store's
// whole contents, so nothing else may live in it (hust's metadata store
// never holds a model). Key layout:
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
// decoders from a hostile catch-up cut as well as from a bad disk.
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

// ---------------------------------------------------------------- saving

// stager stages one shard's per-file records into a checkpoint batch.
// Keys and values are encoded in reused scratch (the batch copies what it
// stages; a node's edges sort in their own). Errors stick.
type stager struct {
	b       *kvstore.Batch
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

const stageBlock = 64 // records staging touches ahead: a constant, not a knob

// stageLocked stages this shard's half of a checkpoint: with full, every
// list, vector and graph node; without, only the facets marked dirty since
// the last completed save — a block at a time, as ApplyEvents mines: it
// touches each record, then encodes each in order. Callers hold m.mu.
func (m *Model) stageLocked(st *stager, full bool) error {
	stage := func(refs []fileRef) {
		for _, r := range refs {
			m.touched += r.fp.touch()
		}
		for _, r := range refs {
			facets := r.fp.dirty
			if full {
				facets = r.fp.have
			}
			st.file(r.id, r.fp, facets)
		}
	}
	if !full {
		for i := 0; i < len(m.dirtyList); i += stageBlock {
			stage(m.dirtyList[i:min(i+stageBlock, len(m.dirtyList))])
		}
		return st.err
	}
	var block [stageBlock]fileRef // on the stack: no record is kept past the call
	n := 0
	for f, fp := range m.files {
		block[n], n = fileRef{f, fp}, n+1
		if n == stageBlock {
			stage(block[:n])
			n = 0
		}
	}
	stage(block[:n])
	return st.err
}

// stageLocked stages a checkpoint of the ensemble into b — with full, the
// complete mined state; without, the facets dirtied since the last completed
// save — then the m/ records at epoch. With reset, each shard's dirty set
// restarts under the same hold of its lock. Callers hold s.dmu, so what is
// staged is one record boundary of the stream.
func (s *ShardedModel) stageLocked(b *kvstore.Batch, full, reset bool, epoch uint64) error {
	stg := stager{b: b, scratch: make([]byte, 0, 512)}
	for _, m := range s.shards {
		m.mu.Lock()
		err := m.stageLocked(&stg, full)
		if err == nil && reset {
			m.resetDirtyLocked()
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return stageMeta(b, s.disp.Window(), s.cfg.Weight, s.cfg.MaxStrength, s.disp.Dispatched(), epoch)
}

// SaveMerged writes the ensemble's complete mined state as ONE logical
// model. Shard state is disjoint, so the union of the per-shard lists and
// vectors under the ordinary key layout is exactly what a single Model
// mining the same stream would save: a merged save is loadable by
// LoadMerged at ANY stripe count or partitioner — the persistence half of
// resizing a cluster between runs.
//
// The state is staged under the dispatch lock, so a checkpoint taken while
// other goroutines Feed captures a consistent cut of the stream: state and
// the fed counter as of some exact record boundary, never a snapshot torn
// across shards. The lock is released before the store writes. The staged
// records then replace the store's contents (kvstore.Store.Replace): the log
// is rewritten as one put per key and synced, so a crash mid-save leaves the
// previous checkpoint intact and nothing of it (a list the threshold filter
// has since dropped) survives the save. A completed save (re)binds the
// ensemble's dirty tracking to the store so the next SaveCheckpoint can write
// just the delta.
func (s *ShardedModel) SaveMerged(st *kvstore.Store) error {
	_, err := s.checkpoint(st, false)
	return err
}

// SaveCheckpoint writes the cheapest valid checkpoint into st: the dirty-key
// delta — puts for facets still present, tombstone deletes for dropped ones,
// appended as one atomic batch — when st is the store (at the epoch) the last
// completed save or load synchronized with, a full SaveMerged otherwise. It
// reports whether the delta path ran. Either way the dispatch lock is held
// only while the model is read, not while the store writes. This is the
// method a periodically checkpointing daemon uses: its cost tracks the write
// rate between checkpoints, not the model size.
func (s *ShardedModel) SaveCheckpoint(st *kvstore.Store) (incremental bool, err error) {
	return s.checkpoint(st, true)
}

// checkpoint is the one save path. Checkpoints run one at a time under ckmu,
// which also guards the binding, so commits land in staging order. A delta
// is staged only when asked for AND st is the very store, at the very epoch,
// the shards' dirty sets were accumulated against; anything else (first
// save, a different store, an epoch someone else advanced) is a full save
// that replaces st's contents. Staging takes dmu inside the store's callback
// and releases it before the store writes. A completed save resets the dirty
// sets and (re)binds; a failed one unbinds, so the next one is full.
func (s *ShardedModel) checkpoint(st *kvstore.Store, allowDelta bool) (incremental bool, err error) {
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	epoch, ok, err := readEpoch(st)
	if err != nil {
		return false, err
	}
	incremental = allowDelta && ok && s.ckptStore == st && epoch != 0 && epoch == s.saveEpoch.Load()
	stage := func(b *kvstore.Batch) error {
		s.dmu.Lock()
		defer s.dmu.Unlock()
		return s.stageLocked(b, !incremental, true, epoch+1)
	}
	if incremental {
		err = st.Batch(stage)
	} else {
		err = st.Replace(stage)
	}
	if err != nil {
		s.ckptStore = nil
		return false, err
	}
	s.ckptStore = st
	s.saveEpoch.Store(epoch + 1)
	return incremental, nil
}

// Cut returns the ensemble's complete mined state as the put frames a full
// save stages — every list, vector and graph node, then the m/ records at
// epoch 1 — with no batch markers and in no key order: a catch-up cut's
// snapshot, which LoadCut installs. It holds the dispatch lock, so the frames
// are one record boundary, and leaves dirty tracking and the checkpoint
// binding alone: the next SaveCheckpoint is still a delta.
func (s *ShardedModel) Cut() ([]byte, error) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return kvstore.Frames(func(b *kvstore.Batch) error { return s.stageLocked(b, true, false, 1) })
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

// checkpoint is a checkpoint decoded and not yet installed: each stored
// file's facets staged on the shard that will own it, and the m/ records.
type checkpoint struct {
	owner               func(trace.FileID) int
	files               []map[trace.FileID]*file // by owning shard
	window              []trace.FileID
	weight, maxStrength float64
	fed, epoch          uint64
	hasConfig           bool
}

func (s *ShardedModel) newCheckpoint() *checkpoint {
	ck := &checkpoint{owner: s.ownerOf, files: make([]map[trace.FileID]*file, len(s.shards))}
	for i := range ck.files {
		ck.files[i] = make(map[trace.FileID]*file)
	}
	return ck
}

// readStore decodes every model record st holds.
func (s *ShardedModel) readStore(st *kvstore.Store) (*checkpoint, error) {
	ck := s.newCheckpoint()
	var err error
	st.Scan(nil, nil, func(k, v []byte) bool {
		err = ck.put(k, v)
		return err == nil
	})
	return ck, err
}

// put decodes one stored record into the checkpoint; a later record under
// the same key replaces an earlier one. A key outside the model's layout
// belongs to whatever else shares the store and is skipped; one inside it
// must decode exactly. put keeps neither key nor value.
func (ck *checkpoint) put(key, value []byte) error {
	switch string(key) {
	case keyConfig:
		c := bin.Read("core: persisted config", value)
		ck.weight, ck.maxStrength, ck.fed = c.F64(), c.F64(), c.U64()
		ck.hasConfig = true
		return c.Done()
	case keyWindow:
		c := bin.Read("core: persisted window", value)
		ck.window = trace.ReadFileIDs(&c)
		return c.Done()
	case keyEpoch:
		c := bin.Read("core: persisted epoch", value)
		ck.epoch, _ = c.U64(), c.U64() // the stream position is for people reading the store
		return c.Done()
	}
	for _, prefix := range statePrefixes {
		if !bytes.HasPrefix(key, []byte(prefix)) {
			continue
		}
		f, ok := fileOfKey(prefix, key)
		if !ok {
			return fmt.Errorf("core: bad key %q", key)
		}
		var err error
		switch prefix {
		case keyPrefixList:
			var list []Correlator
			if list, err = decodeList(value); err == nil {
				ck.stage(f, facetList).list = list
			}
		case keyPrefixVector:
			var vec vsm.Vector
			if vec, err = decodeVector(value); err == nil {
				vec.Presplit()
				ck.stage(f, facetVec).vec = vec
			}
		case keyPrefixGraph:
			var total float64
			var edges []graph.Edge
			if total, edges, err = decodeGraphNode(value); err == nil {
				ck.stage(f, facetGraph).node = graph.Node{Total: total, Edges: edges}
			}
		}
		if err != nil {
			return fmt.Errorf("core: %s%d: %w", prefix, f, err)
		}
		return nil
	}
	return nil
}

// stage returns f's staged record, marked as holding facet.
func (ck *checkpoint) stage(f trace.FileID, facet uint8) *file {
	to := ck.files[ck.owner(f)]
	fp := to[f]
	if fp == nil {
		fp = new(file)
		to[f] = fp
	}
	fp.have |= facet
	return fp
}

// fingerprint is the StateFingerprint of the lists the checkpoint holds.
func (ck *checkpoint) fingerprint(fileCount int) uint64 {
	return fingerprintLists(func(f trace.FileID) []Correlator {
		if fp := ck.files[ck.owner(f)][f]; fp != nil {
			return fp.list
		}
		return nil
	}, fileCount)
}

// checkParams refuses a checkpoint that holds no model, or one mined with
// other parameters than the ensemble's (mixing them silently would be
// wrong).
func (s *ShardedModel) checkParams(ck *checkpoint) error {
	if !ck.hasConfig {
		return fmt.Errorf("core: store has no persisted model")
	}
	if ck.weight != s.cfg.Weight || ck.maxStrength != s.cfg.MaxStrength {
		return fmt.Errorf("core: persisted parameters (p=%v, max_strength=%v) differ from model (p=%v, max_strength=%v)",
			ck.weight, ck.maxStrength, s.cfg.Weight, s.cfg.MaxStrength)
	}
	return nil
}

// installLocked installs a decoded checkpoint, each shard under one hold of
// its lock — readers observe the usual consistent-per-shard snapshot, never
// a shard caught mid-restore — and restarts dirty tracking: the shards now
// equal the checkpoint. Callers hold s.dmu.
func (s *ShardedModel) installLocked(ck *checkpoint) {
	for i, m := range s.shards {
		m.mu.Lock()
		for f, in := range ck.files[i] {
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
		m.resetDirtyLocked()
		m.mu.Unlock()
	}
	s.disp.PrimeWindow(ck.window)
	s.disp.Advance(ck.fed)
}

// LoadMerged restores a merged save into a freshly-constructed ensemble —
// enforced: an ensemble that has already ingested refuses the load (it
// would merge two models and double-count the fed counter) — rebalancing
// every list and vector onto the shard the ensemble's current partitioner
// assigns it to. The stripe count and partitioner may differ
// freely from the ones that produced the save (that is the point); the
// mining parameters must match the persisted weight and threshold (guarding
// against silently mixing incompatible parameters). Predictions after a
// load are identical at any stripe count. The loaded ensemble is bound to
// st, so the next SaveCheckpoint into it can be a delta.
func (s *ShardedModel) LoadMerged(st *kvstore.Store) error {
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	ck, err := s.readStore(st)
	if err == nil {
		err = s.checkParams(ck)
	}
	if err != nil {
		return err
	}
	// The dispatch lock excludes feeding for the whole install, so the
	// restored counter and state land atomically — and the freshness check
	// below cannot race a Feed (checking outside the lock would let a record
	// slip in between check and install, merging models and double-counting
	// the fed counter).
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if fedNow := s.disp.Dispatched(); fedNow > 0 {
		return fmt.Errorf("core: cannot load into an ensemble that has already ingested %d records", fedNow)
	}
	s.installLocked(ck)
	s.ckptStore = st
	s.saveEpoch.Store(ck.epoch) // a pre-epoch store binds epoch 0, which a delta refuses
	return nil
}

// LoadCut installs a catch-up cut — Cut's frames — in place of whatever the
// ensemble holds. Nothing is touched until the frames have decoded whole,
// their lists hash to fingerprint over [0, fileCount), their mining
// parameters are the ensemble's and their ingest position is pos. Then, under
// one dispatch-lock hold, the ensemble drops its state (its list hooks and
// ingest hook stay registered), installs the cut and is bound to no store:
// whatever store it saves into knows nothing of this state, so the next save
// is full.
func (s *ShardedModel) LoadCut(frames []byte, pos, fingerprint uint64, fileCount int) error {
	ck := s.newCheckpoint()
	if err := kvstore.ReadPuts(frames, ck.put); err != nil {
		return fmt.Errorf("core: decoding catch-up cut: %w", err)
	}
	if fp := ck.fingerprint(fileCount); fp != fingerprint {
		return fmt.Errorf("core: catch-up cut fingerprint mismatch: cut %#x, primary claims %#x (corrupt transfer or diverged state)",
			fp, fingerprint)
	}
	if err := s.checkParams(ck); err != nil {
		return err
	}
	if ck.fed != pos {
		return fmt.Errorf("core: catch-up cut at position %d holds %d records", pos, ck.fed)
	}
	s.ckmu.Lock()
	defer s.ckmu.Unlock()
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, m := range s.shards {
		m.reset()
	}
	s.disp = s.newDispatcher()
	s.installLocked(ck)
	s.ckptStore = nil
	s.saveEpoch.Store(0)
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

// TrackedFileCount reports 1 + the highest FileID the ensemble holds any
// mined state (list, vector or graph node) for — the dense fingerprint bound
// a checkpoint cut ships so both ends hash the same FileID space.
func (s *ShardedModel) TrackedFileCount() int {
	n := 0
	for _, m := range s.shards {
		m.mu.RLock()
		for f, fp := range m.files {
			if fp.have != 0 {
				n = max(n, int(f)+1)
			}
		}
		m.mu.RUnlock()
	}
	return n
}
