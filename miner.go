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
	"farmer/internal/prefetch"
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
	storePath string
	loadStore bool
	prefetch  bool
	pfSink    PrefetchSink
	pfCfg     PrefetchConfig
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
// open: every ingested record enters a bounded queue that one goroutine
// drains into predictions for sink, and the pipeline drains on Close. A nil
// sink discards candidates (the pipeline still predicts and accounts).
func WithPrefetcher(sink PrefetchSink, cfg PrefetchConfig) Option {
	return func(oc *openConfig) error {
		if cfg.K < 0 || cfg.QueueCap < 0 {
			return fmt.Errorf("farmer: WithPrefetcher: negative tuning (K=%d, QueueCap=%d)", cfg.K, cfg.QueueCap)
		}
		oc.prefetch = true
		oc.pfSink = sink
		oc.pfCfg = cfg
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
	pfCfg PrefetchConfig // what WithPrefetcher asked for: a named tenant's pipeline runs the same

	// Checkpoint observability: always counted (the MsgObs row needs the
	// numbers whether or not a registry is attached); the padded counters
	// cost one uncontended add per checkpoint. ckptFull counts the full
	// rewrites SaveCheckpoint fell back to. ckpts counts every checkpoint
	// (see compactEvery). lastCkptMS is the unix-ms completion time of the
	// last checkpoint (0 = never). ckptDur is nil until attachMetrics.
	ckptFull   obs.Counter
	ckptDelta  obs.Counter
	ckpts      atomic.Uint64
	lastCkptMS atomic.Int64
	ckptDur    *obs.Histogram

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
	m := &LocalMiner{sm: core.NewSharded(cfg)}
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
		m.pf, m.pfCfg = prefetch.Start(m.sm, oc.pfSink, oc.pfCfg), oc.pfCfg
	}
	return m, nil
}

// attachMetrics registers the miner's live metrics into reg: ingest
// position, model footprint, checkpoint age/epoch and full-vs-delta counts,
// and (with WithPrefetcher) the pipeline's queue depth, drops and prediction
// hit/accuracy. Metric updates on the hot path are free — everything the
// registry reads is an atomic or a callback sampled only at scrape time.
// Serve calls it with ServeConfig.Obs. Attaching twice, or attaching nil,
// is a no-op.
func (m *LocalMiner) attachMetrics(reg *MetricsRegistry) {
	if reg == nil || m.ckptDur != nil {
		return
	}
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
		reg.GaugeFunc("farmer_prefetch_queue_depth", func() float64 { return float64(m.pf.Depth()) })
		reg.CounterFunc("farmer_prefetch_dropped_total", func() float64 { return float64(m.pf.Stats().Dropped) })
	}
}

// obsRow builds the miner's slice of a MsgObs response: footprint, prefetch
// queue health, checkpoint history, prediction accuracy, and the top-k
// correlated groups by strength. The rpc layer stamps wire-level fields
// (feed counts, replication lag) on top.
func (m *LocalMiner) obsRow(topK int) rpc.TenantObs {
	st := m.sm.Stats()
	row := rpc.TenantObs{
		Fed:         st.Fed,
		MemoryBytes: uint64(st.MemoryBytes),
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
		row.TapDepth, row.TapDropped = uint64(m.pf.Depth()), ps.Dropped
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

// compactEvery is how many checkpoints run between write-ahead-log
// compactions: deltas only append, and Compact rewrites the log to the live
// keys under the store's lock alone. A full save needs none: it replaces
// the log with one put per live key itself.
const compactEvery = 16

// checkpoint writes a delta (core.ShardedModel.SaveCheckpoint: O(records
// mined since the last save), not O(model)), or the full rewrite it falls
// back to on the first save, a store at another epoch, or after a failure.
func (m *LocalMiner) checkpoint(sm *ShardedModel, st *Store) error {
	start := time.Now()
	incremental, err := sm.SaveCheckpoint(st)
	if err != nil {
		return err
	}
	n := m.ckpts.Add(1)
	if incremental {
		m.ckptDelta.Inc()
	} else {
		m.ckptFull.Inc()
	}
	m.lastCkptMS.Store(time.Now().UnixMilli())
	m.ckptDur.Observe(uint64(time.Since(start).Milliseconds()))
	if n%compactEvery != 0 {
		return nil
	}
	return st.Compact()
}

// Save implements Miner: checkpoint into the WithStore store — a delta after
// the first save, a full save (which replaces the store) only where a delta
// would not be safe, with periodic write-ahead-log compaction — so repeated
// checkpoints (farmerd -checkpoint) cost O(changed keys) and the store stays
// within a bounded multiple of one copy of the live state.
//
// ctx bounds the WHOLE checkpoint, not just its start: a store write that
// hangs (a wedged disk, an NFS stall) returns ctx's error when the deadline
// passes instead of wedging the caller — in particular the serve drain,
// whose DrainTimeout used to be ignored by exactly this path. The abandoned
// write keeps holding the ensemble's checkpoint mutex and the store's lock
// until it unwedges, so an expired Save leaves later checkpoints, loads and
// store reads blocked — the right state for a daemon about to exit, which is
// the only caller that abandons. It holds no dispatch lock: the model was
// read before the write began, so ingest goes on.
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
// does not cover (the ingest hook, DispatchExternal, merged persistence).
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
