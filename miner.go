package farmer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"farmer/internal/core"
	"farmer/internal/obs"
	"farmer/internal/replica"
	"farmer/internal/rpc"
)

// Miner is the public mining surface this package's deployments share: the
// in-process miner Open returns and the remote client Dial returns both
// implement it, so prediction services, replay harnesses and experiment
// drivers are written once against the interface and run against either.
//
// Every blocking call takes a context.Context; local implementations only
// consult it for cancellation, the remote one threads it through the wire
// round trip. All methods are safe for concurrent use.
type Miner interface {
	// Feed ingests one file request through the four-stage pipeline.
	Feed(ctx context.Context, r *Record) error
	// FeedBatch ingests a batch; local miners mine it with all shards in
	// parallel, the remote client ships it as one frame.
	FeedBatch(ctx context.Context, records []Record) error
	// Predict returns up to k successors of f in decreasing correlation
	// degree — the prefetch candidates for a demand access to f.
	Predict(ctx context.Context, f FileID, k int) ([]FileID, error)
	// Stats returns the miner's footprint snapshot.
	Stats(ctx context.Context) (ModelStats, error)
	// Save checkpoints the mined state into the miner's configured store.
	Save(ctx context.Context) error
	// Load restores mined state from the miner's configured store.
	Load(ctx context.Context) error
	// Close releases the miner's resources (store, pipeline, connection).
	Close() error
}

// ErrNoStore is returned by Save/Load on a miner opened without WithStore.
var ErrNoStore = errors.New("farmer: miner has no store configured (use WithStore)")

// openConfig collects Open's option state.
type openConfig struct {
	shards    int
	shardsSet bool
	part      Partitioner
	storePath string
	loadStore bool
	prefetch  bool
	pfSink    PrefetchSink
	pfCfg     PrefetchConfig
	obs       *obs.Registry
}

// Option configures Open.
type Option func(*openConfig) error

// WithShards stripes the miner across n concurrent partitions, overriding
// Config.Shards (0 and 1 both mean one partition; results are bit-identical
// to the sequential core.Model at every count).
func WithShards(n int) Option {
	return func(oc *openConfig) error {
		if n < 0 {
			return fmt.Errorf("farmer: WithShards(%d): negative shard count", n)
		}
		oc.shards = n
		oc.shardsSet = true
		return nil
	}
}

// WithPartitioner selects the function routing files to shards — the
// composition a multi-server deployment uses so each server's shard holds
// exactly the files the cluster routes to it. Requires WithShards (or
// Config.Shards) >= 1; nil restores the default StripePartitioner.
func WithPartitioner(p Partitioner) Option {
	return func(oc *openConfig) error {
		oc.part = p
		return nil
	}
}

// WithStore backs the miner with a persistent store whose write-ahead log
// lives at path: Save checkpoints into it, Load restores from it. An empty
// path is an error — omit the option for a storeless miner.
func WithStore(path string) Option {
	return func(oc *openConfig) error {
		if path == "" {
			return errors.New("farmer: WithStore: empty path")
		}
		oc.storePath = path
		return nil
	}
}

// WithLoad makes Open restore persisted state (if any) from the WithStore
// store before returning — the usual daemon-restart composition.
func WithLoad() Option {
	return func(oc *openConfig) error {
		oc.loadStore = true
		return nil
	}
}

// WithPrefetcher attaches the asynchronous Predict/prefetch pipeline at
// open: post-ingest events flow through per-shard taps into a bounded
// candidate queue feeding sink, and the pipeline drains on Close. A nil
// sink discards candidates (the pipeline still predicts and accounts).
func WithPrefetcher(sink PrefetchSink, cfg PrefetchConfig) Option {
	return func(oc *openConfig) error {
		if cfg.K < 0 || cfg.QueueCap < 0 || cfg.TapBuffer < 0 {
			return fmt.Errorf("farmer: WithPrefetcher: negative tuning (K=%d, QueueCap=%d, TapBuffer=%d)",
				cfg.K, cfg.QueueCap, cfg.TapBuffer)
		}
		oc.prefetch = true
		oc.pfSink = sink
		oc.pfCfg = cfg
		return nil
	}
}

// WithObs registers the miner's live metrics into reg: ingest position,
// model footprint, per-shard tap mailbox depth and drops, checkpoint
// age/epoch and full-vs-delta counts, and (with WithPrefetcher) prediction
// hit/accuracy. Metric updates on the hot path are free — everything the
// registry reads is an atomic or a callback sampled only at scrape time.
// A nil registry is allowed and equivalent to omitting the option.
func WithObs(reg *MetricsRegistry) Option {
	return func(oc *openConfig) error {
		oc.obs = reg
		return nil
	}
}

// LocalMiner is the in-process Miner: a ShardedModel, optionally backed by
// a persistent store and an attached async prefetch pipeline. Beyond the
// Miner interface it exposes the concrete read surface (CorrelatorList,
// Sharded) that servers and tests need.
type LocalMiner struct {
	sm    *ShardedModel
	store *Store
	pf    *Prefetcher

	gmu    sync.Mutex       // guards groups creation
	groups *replica.Manager // lazily created replica-group manager (§4.3)

	ckptMu        sync.Mutex
	ckptSinceFull int // incremental checkpoints since the last full one

	// Checkpoint observability: always counted (the MsgObs row needs the
	// numbers whether or not a registry is attached); the padded counters
	// cost one uncontended add per checkpoint. lastCkptMS is the unix-ms
	// completion time of the last checkpoint (0 = never). ckptDur is nil
	// without WithObs.
	ckptFull   obs.Counter
	ckptDelta  obs.Counter
	lastCkptMS atomic.Int64
	ckptDur    *obs.Histogram

	obsReg *obs.Registry // nil unless WithObs / AttachMetrics

	closeOnce sync.Once
	closeErr  error
}

var _ Miner = (*LocalMiner)(nil)

// Open creates an in-process miner. It returns errors — an invalid
// configuration, a bad option, or a store that fails to open (including a
// corrupt write-ahead log) — and never panics on them.
func Open(cfg Config, opts ...Option) (*LocalMiner, error) {
	var oc openConfig
	for _, opt := range opts {
		if err := opt(&oc); err != nil {
			return nil, err
		}
	}
	if oc.loadStore && oc.storePath == "" {
		return nil, errors.New("farmer: WithLoad requires WithStore")
	}
	if oc.shardsSet {
		cfg.Shards = oc.shards
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("farmer: invalid config: %w", err)
	}
	owners := cfg.Shards
	if owners < 1 {
		owners = 1
	}
	m := &LocalMiner{sm: core.NewShardedPartitioned(cfg, owners, oc.part)}
	if oc.storePath != "" {
		store, err := OpenStore(oc.storePath)
		if err != nil {
			return nil, fmt.Errorf("farmer: opening store: %w", err)
		}
		m.store = store
		if oc.loadStore && store.Len() > 0 {
			if err := m.sm.LoadMerged(store); err != nil {
				store.Close()
				return nil, fmt.Errorf("farmer: loading store: %w", err)
			}
		}
	}
	if oc.prefetch {
		m.pf = StartPrefetcher(m.sm, oc.pfSink, oc.pfCfg)
	}
	if oc.obs != nil {
		m.AttachMetrics(oc.obs)
	}
	return m, nil
}

// AttachMetrics registers the miner's live metrics into reg — the body of
// WithObs, callable after Open for compositions (like Serve) that build
// the registry later. Attaching twice, or attaching nil, is a no-op.
func (m *LocalMiner) AttachMetrics(reg *MetricsRegistry) {
	if reg == nil || m.obsReg != nil {
		return
	}
	m.obsReg = reg
	m.ckptDur = reg.Histogram("farmer_checkpoint_duration_ms")
	reg.CounterFunc("farmer_ingest_records_total", func() float64 { return float64(m.sm.Fed()) })
	// The footprint estimate walks every list and vector under the model
	// read locks — O(model), not O(1) like every other series here. Cache
	// it briefly so a scrape storm cannot turn into a read-lock storm
	// against the ingest path.
	var memMu sync.Mutex
	var memAt time.Time
	var memVal float64
	reg.GaugeFunc("farmer_model_memory_bytes", func() float64 {
		memMu.Lock()
		defer memMu.Unlock()
		if memAt.IsZero() || time.Since(memAt) > 2*time.Second {
			memVal = float64(m.sm.Stats().MemoryBytes)
			memAt = time.Now()
		}
		return memVal
	})
	reg.GaugeEach("farmer_shard_mailbox_depth", func(emit obs.EmitFunc) {
		for i, sh := range m.sm.ShardObs() {
			emit([]obs.Label{obs.L("shard", fmt.Sprint(i))}, float64(sh.MailboxDepth))
		}
	})
	reg.CounterEach("farmer_tap_dropped_total", func(emit obs.EmitFunc) {
		for i, sh := range m.sm.ShardObs() {
			emit([]obs.Label{obs.L("shard", fmt.Sprint(i))}, float64(sh.Dropped))
		}
	})
	reg.CounterFunc("farmer_checkpoint_full_total", func() float64 { return float64(m.ckptFull.Load()) })
	reg.CounterFunc("farmer_checkpoint_delta_total", func() float64 { return float64(m.ckptDelta.Load()) })
	reg.GaugeFunc("farmer_checkpoint_epoch", func() float64 { return float64(m.sm.SaveEpoch()) })
	reg.GaugeFunc("farmer_checkpoint_age_seconds", func() float64 {
		last := m.lastCkptMS.Load()
		if last == 0 {
			return -1 // never checkpointed
		}
		return float64(time.Now().UnixMilli()-last) / 1000
	})
	if m.pf != nil {
		reg.CounterFunc("farmer_predict_predictions_total", func() float64 { return float64(m.pf.Stats().Predicted) })
		reg.CounterFunc("farmer_predict_hits_total", func() float64 { return float64(m.pf.Stats().Hits) })
		reg.GaugeFunc("farmer_predict_accuracy", func() float64 { return m.pf.Stats().Accuracy() })
		reg.CounterFunc("farmer_prefetch_submitted_total", func() float64 { return float64(m.pf.Stats().Submitted) })
		reg.CounterFunc("farmer_prefetch_queue_dropped_total", func() float64 { return float64(m.pf.Stats().QueueDropped) })
	}
}

// Metrics returns the attached registry, nil without WithObs.
func (m *LocalMiner) Metrics() *MetricsRegistry { return m.obsReg }

// obsRow builds the miner's slice of a MsgObs response: footprint, tap
// health, checkpoint history, prediction accuracy, and the top-k correlated
// groups by strength. The rpc layer stamps wire-level fields (feed counts,
// replication lag) on top.
func (m *LocalMiner) obsRow(topK int) rpc.TenantObs {
	st := m.sm.Stats()
	row := rpc.TenantObs{
		Fed:         st.Fed,
		MemoryBytes: uint64(st.MemoryBytes),
		TapDepth:    uint64(st.TapDepth),
		TapDropped:  st.TapDropped,
		CkptEpoch:   m.sm.SaveEpoch(),
		CkptFull:    m.ckptFull.Load(),
		CkptDelta:   m.ckptDelta.Load(),
		CkptAgeMS:   rpc.NeverCheckpointed,
	}
	if last := m.lastCkptMS.Load(); last > 0 {
		if age := time.Now().UnixMilli() - last; age >= 0 {
			row.CkptAgeMS = uint64(age)
		}
	}
	if m.pf != nil {
		ps := m.pf.Stats()
		row.PredPredicted, row.PredHits = ps.Predicted, ps.Hits
	}
	for _, g := range m.sm.TopGroups(topK) {
		row.Groups = append(row.Groups, rpc.ObsGroup{Seed: g.Seed, Strength: g.Strength, Files: g.Files})
	}
	return row
}

// Feed implements Miner.
func (m *LocalMiner) Feed(ctx context.Context, r *Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.sm.Feed(r)
	return nil
}

// FeedBatch implements Miner; all shards mine the batch in parallel.
func (m *LocalMiner) FeedBatch(ctx context.Context, records []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.sm.FeedBatch(records)
	return nil
}

// Predict implements Miner, reading the shard that owns f's list.
func (m *LocalMiner) Predict(ctx context.Context, f FileID, k int) ([]FileID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.sm.Predict(f, k), nil
}

// Stats implements Miner.
func (m *LocalMiner) Stats(ctx context.Context) (ModelStats, error) {
	if err := ctx.Err(); err != nil {
		return ModelStats{}, err
	}
	return m.sm.Stats(), nil
}

// saveToStore is the checkpoint-body seam so tests can stand in a blocking
// store write and prove Save honors its context. nil (the default) means
// the real body, LocalMiner.checkpoint.
var saveToStore func(sm *ShardedModel, st *Store) error

// fullCheckpointEvery forces every Nth checkpoint full — with a WAL
// compaction behind it — even when a delta would be valid. Deltas append to
// the write-ahead log, so without a periodic full anchor the log would grow
// by one delta per checkpoint forever; with it, the store stays within a
// bounded multiple of one live-state copy.
const fullCheckpointEvery = 16

// checkpoint writes the cheapest valid checkpoint: the dirty-key delta
// (core.ShardedModel.SaveCheckpoint) most of the time — O(records mined
// since the last save), not O(model) — and a full rewrite plus compaction
// on the first save, every fullCheckpointEvery-th save, or whenever the
// store's epoch says a delta would not be safe.
func (m *LocalMiner) checkpoint(sm *ShardedModel, st *Store) error {
	start := time.Now()
	m.ckptMu.Lock()
	forceFull := m.ckptSinceFull >= fullCheckpointEvery-1
	m.ckptMu.Unlock()
	var (
		incremental bool
		err         error
	)
	if forceFull {
		err = sm.SaveMerged(st)
	} else {
		incremental, err = sm.SaveCheckpoint(st)
	}
	if err != nil {
		return err
	}
	m.ckptMu.Lock()
	if incremental {
		m.ckptSinceFull++
	} else {
		m.ckptSinceFull = 0
	}
	m.ckptMu.Unlock()
	if incremental {
		m.ckptDelta.Inc()
	} else {
		m.ckptFull.Inc()
	}
	m.lastCkptMS.Store(time.Now().UnixMilli())
	m.ckptDur.Observe(uint64(time.Since(start).Milliseconds()))
	if incremental {
		return nil
	}
	return st.Compact()
}

// Save implements Miner: checkpoint into the WithStore store — incremental
// when the dirty sets allow it, a full SaveMerged plus write-ahead-log
// compaction otherwise — so repeated checkpoints (farmerd -checkpoint) cost
// O(changed keys) and the store stays at roughly one copy of the live state
// instead of growing by one copy per save.
//
// ctx bounds the WHOLE checkpoint, not just its start: a store write that
// hangs (a wedged disk, an NFS stall) returns ctx's error when the deadline
// passes instead of wedging the caller — in particular the serve drain,
// whose DrainTimeout used to be ignored by exactly this path. The abandoned
// write keeps holding the miner's dispatch and store locks until it
// unwedges, so an expired Save leaves later checkpoints blocked too — the
// right state for a daemon about to exit, which is the only caller that
// abandons.
func (m *LocalMiner) Save(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.store == nil {
		return ErrNoStore
	}
	done := make(chan error, 1)
	save := saveToStore // capture: the goroutine may outlive a test's seam swap
	if save == nil {
		save = m.checkpoint
	}
	go func() { done <- save(m.sm, m.store) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("farmer: checkpoint abandoned: %w", ctx.Err())
	}
}

// Load implements Miner: LoadMerged from the WithStore store, rebalancing
// onto the current shard count and partitioner. It only restores into a
// fresh miner: LoadMerged overlays state and adds the persisted ingest
// counter, so loading over live mined state would merge models and
// double-count Fed — a miner that has already ingested reports an error
// instead.
func (m *LocalMiner) Load(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.store == nil {
		return ErrNoStore
	}
	if m.sm.Fed() > 0 {
		return fmt.Errorf("farmer: cannot load into a miner that has already ingested %d records", m.sm.Fed())
	}
	return m.sm.LoadMerged(m.store)
}

// CorrelatorList returns a copy of f's sorted Correlator List from the shard
// that owns it.
func (m *LocalMiner) CorrelatorList(f FileID) []Correlator { return m.sm.CorrelatorList(f) }

// Sharded exposes the underlying ensemble for compositions the interface
// does not cover (event taps, DispatchExternal, merged persistence).
func (m *LocalMiner) Sharded() *ShardedModel { return m.sm }

// Prefetcher returns the attached pipeline, nil without WithPrefetcher.
func (m *LocalMiner) Prefetcher() *Prefetcher { return m.pf }

// Close drains the attached prefetch pipeline and closes the store.
// Idempotent.
func (m *LocalMiner) Close() error {
	m.closeOnce.Do(func() {
		if m.pf != nil {
			m.pf.Stop()
		}
		if m.store != nil {
			m.closeErr = m.store.Close()
		}
	})
	return m.closeErr
}
