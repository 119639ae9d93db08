// Sharded ingestion: an N-way, FileID-striped ensemble of Model that lets
// the four-stage pipeline use every core during heavy-traffic mining.
//
// Model.Feed serializes all ingestion behind one mutex, so a multi-worker
// MDS replaying a peta-scale request stream mines on a single core. The
// sharded miner splits the work by the only key all mined state is indexed
// under — the predecessor FileID: file x's Correlator List, its graph node
// (N_x and every N_xy), and its semantic vector all live on shard(x), and
// nowhere else. A partition.Dispatcher replays the lookahead window in
// global stream order (cheap: window bookkeeping plus Stage-1 extraction)
// and fans the expensive Stage-3/4 work — semantic-similarity evaluation
// and Correlator-List resorting — out to the owning shards as ordered
// events.
//
// Because every event stream a shard consumes is FIFO in global stream
// order and shard state is disjoint, an N-shard batch ingest produces
// exactly the state a single Model reaches feeding the same records in
// order — not merely "within tolerance". The only divergence window is
// mid-batch reads, which may observe one shard ahead of another.
//
// The same dispatcher serves the simulated multi-MDS cluster: see
// internal/partition for the generic layer and internal/hust for the
// servers that mine the global model across their (virtual) boundaries.
package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// paddedModel rounds a Model up to a whole number of cache lines so the
// ensemble can allocate its shards as one contiguous block without adjacent
// shards sharing a line: shard i's mutex and hot counters would otherwise sit
// on the same 64 bytes as shard i+1's, and every uncontended lock acquisition
// would ping the line between the cores mining neighboring shards.
type paddedModel struct {
	Model
	_ [(64 - unsafe.Sizeof(Model{})%64) % 64]byte
}

// applyBlock is how many events ApplyEvents resolves to their records before
// it mines them. A constant, not a knob: 16 measured 2 % slower and 256 the
// same (a one-record Feed zeroes the block three times: at 256 that costs it
// 5 %), and 64 events of about five lines each stay in L1 between the passes.
const applyBlock = 64

// ApplyEvents replays ordered partition events against this model under its
// lock — the Owner side of the partition layer — a block at a time. Pass 1
// finds the record each event of the block works on (the accessed file's, an
// edge's predecessor's; created here when the event is the first to name it),
// then loads the first line of what pass 2 reads through each: edge table,
// list, stored path. No lookup and no load of pass 1 depends on another
// event's, so the misses of a block are waited for together, not one event
// after another behind Sim, Add and placeCorrelator. Pass 2 mines in event
// order on the resolved records: an access event installs a copy of the
// freshly extracted semantic vector; an edge event adds LDA credit and
// re-evaluates R(pred, succ) against the successor's vector it points at.
func (m *Model) ApplyEvents(evs []partition.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var fps [applyBlock]*file // on the stack: no record is kept past the call
	for len(evs) > 0 {
		block := evs[:min(len(evs), applyBlock)]
		evs = evs[len(block):]
		for i := range block {
			if ev := &block[i]; ev.Access {
				fps[i] = m.file(ev.Succ)
			} else {
				fps[i] = m.file(ev.Pred)
			}
		}
		for _, fp := range fps[:len(block)] {
			m.touched += fp.touch()
		}
		for i := range block {
			ev, fp := &block[i], fps[i]
			if ev.Access {
				stored := m.vectorOf(fp, ev.Succ)
				*stored = *ev.Vector() // the one copy a record's vector is given: state
				stored.Presplit()      // returns at once on what this process extracted; a decoded vector becomes a stored one here
				continue
			}
			m.evaluate(fp, ev.Pred, ev.Succ, m.credit(fp, ev.Pred, ev.Succ, ev.Credit), ev.Vector())
		}
	}
}

// touch loads the first line of what mining or staging reads through the
// record — edge table, list, stored path — and sums them: Go has no prefetch
// outside the runtime, and a load summed into the model is one the compiler
// keeps. Callers touch a block in a loop of its own: behind a map lookup's
// hundred instructions the core would start two or three at a time.
func (fp *file) touch() (sum uint64) {
	if len(fp.node.Edges) > 0 {
		sum += uint64(fp.node.Edges[0].To)
	}
	if len(fp.list) > 0 {
		sum += uint64(fp.list[0].File)
	}
	if len(fp.vec.Path) > 0 {
		sum += uint64(fp.vec.Path[0])
	}
	return sum
}

// ShardedModel is a FileID-striped ensemble of Models with concurrent batch
// ingestion. Feed and FeedBatch may be called from multiple goroutines;
// read methods are safe concurrently with ingestion (mid-batch they observe
// a consistent-per-shard but possibly staggered snapshot).
//
// The partition.Dispatcher owns the lookahead window, the Stage-1 extractor
// and the record counter at every shard count; the shards hold only the
// mined state events install. A one-shard ensemble therefore runs the same
// code as an N-shard one and is bit-identical to Model after every record.
type ShardedModel struct {
	cfg    Config
	part   partition.Partitioner
	shards []*Model

	dmu  sync.Mutex            // serializes dispatch (window + emission order)
	disp *partition.Dispatcher // owns the window and the global sequence
	evs  []partition.Event     // scratch: one streamed record's events
	vecs []vsm.Vector          // scratch: the vectors a batch's events point at, one a record (see maxKeptVectors)

	hook func(seq uint64, f trace.FileID) // see SetIngestHook; guarded by dmu

	// Checkpoint binding, guarded by ckmu: the store the last completed save
	// or load synchronized the ensemble with, and the epoch that pass wrote
	// or read. SaveCheckpoint writes a delta only into this same store at
	// this same epoch; anything else falls back to a full rewrite. ckmu
	// orders checkpoints and loads and is taken before dmu; saveEpoch is
	// also atomic, so reading it never waits for a commit. See persist.go.
	ckmu      sync.Mutex
	ckptStore *kvstore.Store
	saveEpoch atomic.Uint64
}

// NewSharded creates a sharded miner with cfg.Shards partitions (0 and 1
// both mean unsharded). Like New it panics on invalid configuration.
func NewSharded(cfg Config) *ShardedModel {
	return NewShardedPartitioned(cfg, max(cfg.Shards, 1), partition.Stripe)
}

// NewShardedPartitioned creates a sharded miner whose stripes are the
// partitions of a deployment-level Partitioner — the composition a
// multi-server cluster uses so every server's shard holds exactly the files
// the cluster routes to it. owners is the partition count; a nil part
// defaults to partition.Stripe. cfg.Shards is ignored (the explicit owner
// count wins). Like New it panics on invalid configuration.
func NewShardedPartitioned(cfg Config, owners int, part partition.Partitioner) *ShardedModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if part == nil {
		part = partition.Stripe
	}
	shardCfg := cfg
	shardCfg.Shards = 0
	// Config() reports the real partition count, whatever cfg.Shards said
	// (NewSharded normalizes 0 to 1; here the explicit owner count wins).
	cfg.Shards = owners
	s := &ShardedModel{cfg: cfg, part: part}
	// One contiguous, line-aligned slot per shard (see paddedModel): the
	// slice keeps the Models adjacent for locality while the padding keeps
	// their locks off each other's cache lines.
	slots := make([]paddedModel, owners)
	s.shards = make([]*Model, owners)
	for i := 0; i < owners; i++ {
		slots[i].init(shardCfg)
		s.shards[i] = &slots[i].Model
	}
	s.disp = s.newDispatcher()
	return s
}

// newDispatcher builds the ensemble's sequencer in its start state: empty
// window, fresh extractor, zero records.
func (s *ShardedModel) newDispatcher() *partition.Dispatcher {
	return partition.NewDispatcher(partition.Config{
		Owners:      len(s.shards),
		Partitioner: s.part,
		Mask:        s.cfg.Mask,
		PathAlg:     s.cfg.PathAlg,
		Graph:       s.cfg.Graph,
	})
}

// Config returns the ensemble's configuration (including Shards).
func (s *ShardedModel) Config() Config { return s.cfg }

// Shards reports the partition count.
func (s *ShardedModel) Shards() int { return len(s.shards) }

// Partitioner reports the stripe function routing files to shards.
func (s *ShardedModel) Partitioner() partition.Partitioner { return s.part }

func (s *ShardedModel) ownerOf(f trace.FileID) int {
	return s.part(f, len(s.shards))
}

func (s *ShardedModel) shardFor(f trace.FileID) *Model {
	return s.shards[s.ownerOf(f)]
}

// Feed ingests one record. Unlike Model.Feed it is safe to call from many
// goroutines: dispatch is serialized, state updates take only the owning
// shard's lock. dmu keeps sequencing, application and the ingest hook atomic
// per record, so the hook sees concurrent callers' records in stream order
// and a checkpoint taken under dmu sees state and counter at an exact record
// boundary. The record's events (its access, then one edge per window slot)
// are collected and applied a run of same-owner events at a time: one
// shard-lock hold per run, not per event.
func (s *ShardedModel) Feed(r *trace.Record) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	evs := s.evs[:0]
	seq := s.disp.DispatchInto(r, &s.vectors(1)[0], func(_ int, ev partition.Event) { evs = append(evs, ev) })
	s.applyRouted(evs)
	s.evs = evs // keep the grown scratch
	if s.hook != nil {
		s.hook(seq, r.File)
	}
}

// SetIngestHook registers fn to run once for every record the ensemble mines
// through Feed or FeedBatch, after the shard owning the record's file has
// installed its access: seq is the record's 1-based global sequence, f its
// file. At most one hook; nil unregisters. fn runs on the ingesting
// goroutine — during FeedBatch on the shard workers, concurrently across
// shards and in stream order within one — while the ingesting call holds
// dmu, so it must be safe for concurrent use, must not block, and must not
// feed the ensemble or set its hook. Records sequenced by DispatchExternal
// are not seen.
func (s *ShardedModel) SetIngestHook(fn func(seq uint64, f trace.FileID)) {
	s.dmu.Lock()
	s.hook = fn
	s.dmu.Unlock()
}

// DispatchExternal sequences one record through the ensemble's dispatcher
// but hands the emitted events to the caller instead of applying them — the
// hook internal/hust's simulated multi-MDS cluster uses to route events
// through its own delivery (bounded in-flight queues, virtual network
// delay) while this ensemble remains the single source of truth for the
// window, the global sequence and persistence. The caller owns delivery: each shard's events must reach
// Shard(owner).ApplyEvents in emission order for the ensemble to stay
// bit-identical to a locally fed one. The ingest hook does not see externally
// dispatched records.
func (s *ShardedModel) DispatchExternal(r *trace.Record, emit func(owner int, ev partition.Event)) uint64 {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.disp.Dispatch(r, emit)
}

// applyRouted applies events to the shards owning the state they touch, one
// ApplyEvents call (one lock hold) per run of same-owner events, preserving
// each shard's relative order.
func (s *ShardedModel) applyRouted(evs []partition.Event) {
	for lo := 0; lo < len(evs); {
		owner := s.eventOwner(&evs[lo])
		hi := lo + 1
		for hi < len(evs) && s.eventOwner(&evs[hi]) == owner {
			hi++
		}
		s.shards[owner].ApplyEvents(evs[lo:hi])
		lo = hi
	}
}

// eventOwner is the shard holding the state ev touches: the accessed file's
// for an access event, the predecessor's for an edge event.
func (s *ShardedModel) eventOwner(ev *partition.Event) int {
	if ev.Access {
		return s.ownerOf(ev.Succ)
	}
	return s.ownerOf(ev.Pred)
}

// maxKeptVectors bounds the vector scratch the ensemble keeps between calls
// (320 KiB, and the last batch's Path strings), as rpc.maxKeptRecords bounds
// the records they were decoded into; a larger batch gets a slice of its own.
const maxKeptVectors = 4096

// vectors returns n vectors for the events of the next n records to point at.
// Callers hold dmu and are done with every event before they release it.
func (s *ShardedModel) vectors(n int) []vsm.Vector {
	if n > maxKeptVectors {
		return make([]vsm.Vector, n)
	}
	if n > len(s.vecs) {
		s.vecs = make([]vsm.Vector, n)
	}
	return s.vecs[:n]
}

// eventChunk sizes the batches of events shipped to a shard worker: large
// enough to amortize channel and lock traffic, small enough to keep all
// shards busy on modest batches.
const eventChunk = 512

// chunkPool recycles FeedBatch's event chunks across calls and ensembles.
// A chunk has one owner at a time: the dispatching goroutine while it fills,
// then the shard worker it was sent to, which returns it to the pool only
// after ApplyEvents and the ingest hook are done with its events.
var chunkPool = sync.Pool{New: func() any { return new([eventChunk]partition.Event) }}

// FeedBatch ingests a batch of records with all shards mining in parallel.
// The records are treated as one contiguous stream segment continuing the
// model's current lookahead window; the final state is identical to feeding
// the same records through a single Model in order. The call returns after
// every shard has drained its events.
func (s *ShardedModel) FeedBatch(records []trace.Record) {
	if len(records) == 0 {
		return
	}
	s.dmu.Lock()
	defer s.dmu.Unlock()

	// deliver hands a filled chunk to its shard: through a channel to the
	// shard's worker, or — the one place the shard count picks a path — by
	// applying it on this goroutine when there is one shard. A lone shard has
	// nothing to run beside, and starting its worker costs more than a small
	// batch takes to mine (a 1-record batch: 1.9 µs inline, 6.3 µs through a
	// worker; EXPERIMENTS.md "One of each").
	deliver := s.applyChunk
	var wg sync.WaitGroup
	var chans []chan []partition.Event
	if len(s.shards) > 1 {
		chans = make([]chan []partition.Event, len(s.shards))
		for i := range chans {
			chans[i] = make(chan []partition.Event, 8)
			wg.Add(1)
			go func(shard int, ch <-chan []partition.Event) {
				defer wg.Done()
				for evs := range ch {
					s.applyChunk(shard, evs)
				}
			}(i, chans[i])
		}
		deliver = func(shard int, evs []partition.Event) { chans[shard] <- evs }
	}

	bufs := make([][]partition.Event, len(s.shards))
	emit := func(shard int, ev partition.Event) {
		if bufs[shard] == nil {
			bufs[shard] = chunkPool.Get().(*[eventChunk]partition.Event)[:0]
		}
		bufs[shard] = append(bufs[shard], ev)
		if len(bufs[shard]) == eventChunk {
			deliver(shard, bufs[shard])
			bufs[shard] = nil
		}
	}
	vecs := s.vectors(len(records)) // no slot is reused before wg.Wait: the workers read them
	for i := range records {
		s.disp.DispatchInto(&records[i], &vecs[i], emit)
	}
	for i, buf := range bufs {
		if len(buf) > 0 {
			deliver(i, buf)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// applyChunk mines one chunk of a batch on its shard, runs the ingest hook
// for the records that shard owns, and recycles the chunk. One goroutine at
// a time runs it for a given shard (the shard's worker, or the dispatching
// goroutine of a one-shard ensemble), which keeps the hook's calls for one
// shard in stream order. FeedBatch holds dmu throughout, so hook is stable.
func (s *ShardedModel) applyChunk(shard int, evs []partition.Event) {
	s.shards[shard].ApplyEvents(evs)
	if s.hook != nil {
		for i := range evs {
			if evs[i].Access {
				s.hook(evs[i].Seq, evs[i].Succ)
			}
		}
	}
	clear(evs) // a pooled chunk must not keep a batch's vectors reachable
	chunkPool.Put((*[eventChunk]partition.Event)(evs[:eventChunk]))
}

// FeedTraceParallel is the batch-ingestion entry point for whole traces —
// the concurrent counterpart of Model.FeedTrace.
func (s *ShardedModel) FeedTraceParallel(t *trace.Trace) { s.FeedBatch(t.Records) }

// CorrelatorList returns a copy of the file's sorted Correlator List from
// the owning shard.
func (s *ShardedModel) CorrelatorList(f trace.FileID) []Correlator {
	return s.shardFor(f).CorrelatorList(f)
}

// Predict returns up to k successors of f in decreasing correlation degree,
// read from the single shard that owns f's list.
func (s *ShardedModel) Predict(f trace.FileID, k int) []trace.FileID {
	return s.shardFor(f).Predict(f, k)
}

// Degree returns R(x,y) as recorded on x's owning shard.
func (s *ShardedModel) Degree(x, y trace.FileID) float64 {
	return s.shardFor(x).Degree(x, y)
}

// Vector returns the last semantic vector extracted for a file.
func (s *ShardedModel) Vector(f trace.FileID) (vsm.Vector, bool) {
	return s.shardFor(f).Vector(f)
}

// Fed reports how many records the ensemble has ingested.
func (s *ShardedModel) Fed() uint64 { return s.disp.Dispatched() }

// ResetWindow forgets the lookahead window (stream boundary) while keeping
// all mined knowledge.
func (s *ShardedModel) ResetWindow() {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	s.disp.ResetWindow()
}

// Stats merges the per-shard footprints. Shard state is disjoint, so the
// sums equal a single Model's footprint for the same stream.
func (s *ShardedModel) Stats() Stats {
	var out Stats
	for _, m := range s.shards {
		st := m.Stats()
		out.TrackedFiles += st.TrackedFiles
		out.Lists += st.Lists
		out.Correlators += st.Correlators
		out.GraphNodes += st.GraphNodes
		out.GraphEdges += st.GraphEdges
		out.MemoryBytes += st.MemoryBytes
	}
	out.Fed = s.disp.Dispatched()
	return out
}

// SaveEpoch reports the checkpoint epoch the ensemble is bound to — the
// counter the m/epoch protocol bumps on every completed save (0 = never
// checkpointed or unbound).
func (s *ShardedModel) SaveEpoch() uint64 { return s.saveEpoch.Load() }

// Shard exposes one partition's Model (tests, persistence experiments).
func (s *ShardedModel) Shard(i int) *Model { return s.shards[i] }

// reset clears one shard back to its post-init state, keeping the list hook
// registration — how a catch-up cut (LoadCut) replaces the state it finds.
// Every dropped Correlator List is notified to the hook.
func (m *Model) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.listHook != nil {
		for f, fp := range m.files {
			if fp.have&facetList != 0 {
				m.listHook(f)
			}
		}
	}
	m.files = make(map[trace.FileID]*file)
	clear(m.hits) // the last Feed's records, of the map just replaced
	m.window = m.window[:0]
	m.fed = 0
	m.dirtyOn = false
	m.dirtyList = nil
}
