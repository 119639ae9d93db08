// Package hust simulates the object-based storage system the paper
// prototypes FARMER on (§5.1): clients issue file requests; a metadata
// server (MDS) answers them from an LRU metadata cache backed by a
// Berkeley-DB-style store (the data path is not modelled: every figure
// the paper reports is a metadata figure). The MDS implements the paper's
// priority-based request scheduling — demand requests are served ahead of
// queued prefetch requests — and hosts the pluggable prefetch predictor
// (FARMER's FPA, Nexus, or none/LRU). Response times are counted in
// nanoseconds in an obs.Histogram, the repository's one histogram.
package hust

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"farmer/internal/cache"
	"farmer/internal/core"
	"farmer/internal/kvstore"
	"farmer/internal/obs"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
)

// MDSConfig parameterises the metadata server model.
type MDSConfig struct {
	// CacheCapacity is the metadata cache size in entries.
	CacheCapacity int
	// Workers is the number of concurrent metadata service threads.
	Workers int
	// CacheHitTime is the service time of a request satisfied from cache.
	CacheHitTime time.Duration
	// StoreReadTime is the service time of a metadata store (Berkeley DB)
	// lookup on a cache miss, dominated by the disk access.
	StoreReadTime time.Duration
	// PrefetchK is how many Correlator-List entries are prefetched per
	// demand access (the prefetching degree).
	PrefetchK int
	// PrefetchBatch treats a batch of prefetches triggered by one demand
	// access as a single store I/O (grouped layout, §4.2); otherwise each
	// prefetch is its own store read.
	PrefetchBatch bool
	// MineTime is the modeled CPU cost of running the four mining stages for
	// one record. With AsyncPrefetch false it inflates every demand request's
	// service time — mining sits on the demand path, the configuration the
	// paper prototypes. 0 models free mining (the pre-async legacy behavior).
	MineTime time.Duration
	// AsyncPrefetch decouples mining and prediction from the demand path:
	// demand service consults only the metadata cache and the miner's
	// already-materialized Correlator-List snapshot, while mining and
	// prediction run on a separate mining station modeling the shard
	// workers (see core.ShardedModel.SetIngestHook and internal/prefetch for
	// the real concurrent pipeline this virtual-time model mirrors).
	AsyncPrefetch bool
	// MinerWorkers sizes the async mining station; 0 matches Workers.
	MinerWorkers int
	// PrefetchQueue bounds the backlog of queued prefetch requests: beyond
	// it the oldest queued prefetch is dropped (and counted), so a mining
	// burst degrades prefetch coverage instead of demand latency.
	// 0 = unbounded (legacy).
	PrefetchQueue int
	// ExternalMiner marks mining as driven from outside the MDS — the
	// cluster-level global dispatcher. Demand performs only cache/store
	// service (no predictor Record, no prefetch issue); the external driver
	// applies mined state itself, prices mining CPU through SubmitMine and
	// issues prefetches through PrefetchFiles. Requires AsyncPrefetch,
	// since the mining station carries the externally submitted work.
	ExternalMiner bool
}

// DefaultMDSConfig returns calibrated service times: a cache hit costs
// 0.05ms of MDS CPU; a store miss costs 2ms (disk-bound Berkeley DB read).
func DefaultMDSConfig() MDSConfig {
	return MDSConfig{
		CacheCapacity: 256,
		Workers:       4,
		CacheHitTime:  50 * time.Microsecond,
		StoreReadTime: 2 * time.Millisecond,
		PrefetchK:     4,
		PrefetchBatch: true,
	}
}

// Validate reports configuration errors.
func (c MDSConfig) Validate() error {
	switch {
	case c.CacheCapacity <= 0:
		return fmt.Errorf("hust: cache capacity %d", c.CacheCapacity)
	case c.Workers <= 0:
		return fmt.Errorf("hust: workers %d", c.Workers)
	case c.CacheHitTime <= 0 || c.StoreReadTime <= 0:
		return fmt.Errorf("hust: non-positive service times")
	case c.PrefetchK < 0:
		return fmt.Errorf("hust: negative prefetch degree")
	case c.MineTime < 0:
		return fmt.Errorf("hust: negative mine time")
	case c.MinerWorkers < 0:
		return fmt.Errorf("hust: negative miner workers")
	case c.PrefetchQueue < 0:
		return fmt.Errorf("hust: negative prefetch queue bound")
	case c.ExternalMiner && !c.AsyncPrefetch:
		return fmt.Errorf("hust: ExternalMiner requires AsyncPrefetch (the mining station)")
	}
	return nil
}

// MDS is the simulated metadata server.
type MDS struct {
	cfg   MDSConfig
	eng   *sim.Engine
	srv   *sim.Server
	miner *sim.Server // async mining station (nil in sync mode)
	cache *cache.LRU
	store *kvstore.Store
	pred  predictors.Predictor

	resp         obs.Histogram // response times, ns
	maxResp      time.Duration
	prefetchSent uint64
	storeReads   uint64
}

// NewMDS builds a metadata server over an in-memory store on the given
// engine. pred drives prefetching (predictors.None disables it).
func NewMDS(eng *sim.Engine, cfg MDSConfig, pred predictors.Predictor) (*MDS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	store, err := kvstore.Open("")
	if err != nil {
		return nil, err
	}
	m := &MDS{
		cfg:   cfg,
		eng:   eng,
		srv:   sim.NewServer(eng, cfg.Workers),
		cache: cache.NewLRU(cfg.CacheCapacity),
		store: store,
		pred:  pred,
	}
	if cfg.PrefetchQueue > 0 {
		m.srv.LimitQueue(sim.PriorityPrefetch, cfg.PrefetchQueue)
	}
	if cfg.AsyncPrefetch {
		mw := cfg.MinerWorkers
		if mw <= 0 {
			mw = cfg.Workers
		}
		m.miner = sim.NewServer(eng, mw)
	}
	return m, nil
}

// NewPolicyMDS builds an MDS that prefetches with the named policy
// (NewPredictor). A FARMER miner whose mc.Shards is 0 is striped to match
// cfg.Workers, as a deployment whose metadata threads each mine would run;
// in this single-goroutine simulator the width is modeled, and every stripe
// count mines identical results (core.ShardedModel). With
// cfg.AsyncPrefetch, mining and prediction run on the mining station, sized
// to the stripe count unless cfg.MinerWorkers says otherwise; records reach
// the miner in demand-arrival order either way, so the mined state is
// bit-identical to the synchronous configuration (asserted by
// internal/replay).
func NewPolicyMDS(eng *sim.Engine, cfg MDSConfig, policy string, mc core.Config) (*MDS, error) {
	if strings.EqualFold(policy, "farmer") {
		if mc.Shards == 0 {
			mc.Shards = cfg.Workers
		}
		if cfg.AsyncPrefetch && cfg.MinerWorkers == 0 {
			cfg.MinerWorkers = mc.Shards
		}
	}
	p, err := NewPredictor(policy, mc)
	if err != nil {
		return nil, err
	}
	return NewMDS(eng, cfg, p)
}

// NewPredictor builds the named policy's prefetch predictor
// (case-insensitive): "farmer" is FARMER's FPA over a miner configured by
// mc and striped per mc.Shards; "nexus", "probgraph", "ls", "pbs", "puls"
// and "lru" (or "none") are the paper's baselines and the related-work
// predictors, and ignore mc.
func NewPredictor(policy string, mc core.Config) (predictors.Predictor, error) {
	switch strings.ToLower(policy) {
	case "farmer":
		if err := mc.Validate(); err != nil {
			return nil, err
		}
		return predictors.NewFPA(core.NewSharded(mc)), nil
	case "nexus":
		return predictors.NewNexus(predictors.DefaultNexusConfig()), nil
	case "probgraph":
		return predictors.NewProbabilityGraph(2, 0.1), nil
	case "ls":
		return predictors.NewLastSuccessor(), nil
	case "pbs":
		return predictors.NewPBS(), nil
	case "puls":
		return predictors.NewPULS(), nil
	case "lru", "none":
		return predictors.NewNone(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", policy)
}

// metaKey renders a store key for a file's metadata record.
func metaKey(f trace.FileID) []byte {
	k := make([]byte, 5)
	k[0] = 'm'
	binary.BigEndian.PutUint32(k[1:], uint32(f))
	return k
}

// PopulateStore writes a metadata record for every file in the trace into
// the backing store, as HUSt's MDS would hold before replay.
func (m *MDS) PopulateStore(t *trace.Trace) error {
	val := make([]byte, 64) // typical inode-sized metadata blob
	for f := 0; f < t.FileCount; f++ {
		binary.LittleEndian.PutUint32(val, uint32(f))
		if err := m.store.Put(metaKey(trace.FileID(f)), val); err != nil {
			return err
		}
	}
	return nil
}

// Demand submits a client metadata request for r at the current virtual
// time. done (optional) runs at completion with the request's response time.
//
// In the synchronous configuration mining and prefetch issue happen on the
// demand path (the paper's "mining and evaluating utility" hooks the request
// stream) and MineTime inflates the demand service time. With AsyncPrefetch
// the demand request carries only the cache/store cost, and the record is
// handed to the mining station: its completion callback — the virtual-time
// mirror of a prefetch.Pipeline queued record — feeds the miner and issues the
// prefetches. The station is FIFO with uniform service times, so records are
// mined in demand-arrival order and the mined state stays bit-identical to
// the synchronous path; only prefetch timing (coverage) differs.
func (m *MDS) Demand(r *trace.Record, done func(resp time.Duration)) {
	hit := m.cache.Access(r.File)
	service := m.cfg.StoreReadTime
	if hit {
		service = m.cfg.CacheHitTime
	} else {
		m.storeReads++
		// Perform the actual store lookup so the data path is real.
		if _, ok := m.store.Get(metaKey(r.File)); !ok {
			// Unknown file: creation path — install it.
			_ = m.store.Put(metaKey(r.File), make([]byte, 64))
		}
	}
	// In sync mode with priced mining, the service thread mines as part of
	// the request, so its predictions only exist once the request completes
	// (wait + service, mining included) — prefetches issue from the Done
	// callback. Issuing any earlier would hand the sync pipeline prefetch
	// timing its own modeled mining cannot achieve.
	issueOnDone := false
	if !m.cfg.AsyncPrefetch {
		service += m.cfg.MineTime
		issueOnDone = m.cfg.MineTime > 0 && m.cfg.PrefetchK > 0
	}
	rec := r
	m.srv.Submit(sim.PriorityDemand, &sim.Request{
		Service: service,
		Done: func(wait, total time.Duration) {
			m.resp.Observe(uint64(total))
			m.maxResp = max(m.maxResp, total)
			if done != nil {
				done(total)
			}
			if issueOnDone {
				m.issuePrefetches(rec.File)
			}
		},
	})

	if m.cfg.AsyncPrefetch {
		if m.cfg.ExternalMiner {
			// The cluster dispatcher mines this record and calls back via
			// SubmitMine/PrefetchFiles; the demand path is already done.
			return
		}
		m.miner.Submit(sim.PriorityDemand, &sim.Request{
			Service: m.cfg.MineTime,
			Done: func(wait, total time.Duration) {
				m.pred.Record(rec)
				if m.cfg.PrefetchK > 0 {
					m.issuePrefetches(rec.File)
				}
			},
		})
		return
	}
	// Record stays at arrival: mined-state order is the demand-arrival
	// order in both sync and async modes (the bit-identical invariant).
	m.pred.Record(r)
	if m.cfg.PrefetchK > 0 && !issueOnDone {
		m.issuePrefetches(r.File)
	}
}

// SubmitMine prices externally driven mining work on the MDS's mining
// station: after any queueing behind earlier mining work plus service
// virtual time, done runs. It is the ExternalMiner counterpart of the
// submission Demand makes in ordinary async mode.
func (m *MDS) SubmitMine(service time.Duration, done func()) {
	m.miner.Submit(sim.PriorityDemand, &sim.Request{
		Service: service,
		Done: func(wait, total time.Duration) {
			if done != nil {
				done()
			}
		},
	})
}

// issuePrefetches predicts up to PrefetchK successors of f and queues
// prefetch requests for the ones not already cached.
func (m *MDS) issuePrefetches(f trace.FileID) {
	m.PrefetchFiles(m.pred.Predict(f, m.cfg.PrefetchK))
}

// PrefetchFiles queues prefetch requests for specific candidate files — the
// hook a cluster-level miner uses to route a prediction to the server that
// will actually see the successor's demand. One call is one batch for
// PrefetchBatch pricing, exactly like the predictions of a single demand
// access.
func (m *MDS) PrefetchFiles(cands []trace.FileID) {
	if len(cands) == 0 {
		return
	}
	// Batch pricing is decided at service entry, not submission: whichever
	// member of the batch actually reaches service first pays the store
	// I/O, and later members ride it at CPU cost. Deciding at submit time
	// would let a bounded queue drop the priced leader while its cheap
	// followers survive and complete with the store read never paid.
	var batchPaid *bool
	if m.cfg.PrefetchBatch {
		batchPaid = new(bool)
	}
	for _, c := range cands {
		if m.cache.Contains(c) {
			continue
		}
		var serviceFn func() time.Duration
		if m.cfg.PrefetchBatch {
			serviceFn = func() time.Duration {
				if *batchPaid {
					return m.cfg.CacheHitTime
				}
				*batchPaid = true
				return m.cfg.StoreReadTime
			}
		}
		m.prefetchSent++
		target := c
		m.srv.Submit(sim.PriorityPrefetch, &sim.Request{
			Service:   m.cfg.StoreReadTime,
			ServiceFn: serviceFn,
			Done: func(wait, total time.Duration) {
				// Metadata arrives: install into the cache unless the
				// demand path beat us to it. The store read is accounted
				// here, at service time, so prefetches dropped from a
				// bounded queue cost no I/O.
				m.storeReads++
				m.store.Get(metaKey(target))
				m.cache.Prefetch(target)
			},
		})
	}
}

// Stats is the per-run MDS outcome.
type Stats struct {
	Cache          cache.Metrics
	AvgResponse    time.Duration
	P95Response    time.Duration
	MaxResponse    time.Duration
	Demand         uint64
	PrefetchIssued uint64
	// PrefetchDone counts prefetches that finished service;
	// PrefetchDropped counts those evicted from a bounded prefetch queue
	// before service. After a drained run Issued = Done + Dropped.
	PrefetchDone    uint64
	PrefetchDropped uint64
	StoreReads      uint64
	AvgDemandWait   time.Duration
	Utilization     float64
	// MineAvgWait is the mining station's mean queueing delay — the mining
	// backlog an async run absorbed off the demand path (0 in sync mode).
	MineAvgWait time.Duration
	// MineUtilization is the mining station's busy fraction. Sync runs fold
	// mining into the MDS Utilization; async runs report it here instead,
	// so cross-mode comparisons must read both fields.
	MineUtilization float64
}

// Finish folds residual prefetch waste and returns the stats.
func (m *MDS) Finish() Stats {
	s := Stats{
		Cache:           m.cache.Finish(),
		MaxResponse:     m.maxResp,
		PrefetchIssued:  m.prefetchSent,
		PrefetchDone:    m.srv.Completed(sim.PriorityPrefetch),
		PrefetchDropped: m.srv.Dropped(sim.PriorityPrefetch),
		StoreReads:      m.storeReads,
		AvgDemandWait:   m.srv.AvgWait(sim.PriorityDemand),
		Utilization:     m.srv.Utilization(),
	}
	s.Demand, s.AvgResponse, s.P95Response = responses(&m.resp)
	if m.miner != nil {
		s.MineAvgWait = m.miner.AvgWait(sim.PriorityDemand)
		s.MineUtilization = m.miner.Utilization()
	}
	return s
}

// responses reads a response-time histogram: how many, their exact mean,
// and the 95th percentile interpolated inside its bucket.
func responses(h *obs.Histogram) (n uint64, avg, p95 time.Duration) {
	n, sum := h.Totals()
	if n == 0 {
		return 0, 0, 0
	}
	return n, time.Duration(sum / n), time.Duration(h.Quantile(0.95))
}

// Predictor exposes the active predictor.
func (m *MDS) Predictor() predictors.Predictor { return m.pred }
