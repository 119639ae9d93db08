// Package farmer is the public API of this FARMER reproduction: a File
// Access coRrelation Mining and Evaluation Reference model (Xia, Feng,
// Jiang, Tian, Wang — UNL CSE TR-2008-0001 / HPDC'08) together with the
// substrates its evaluation needs (synthetic workload generators, an
// object-based storage-system simulator, and the Nexus/LRU baselines).
//
// # Quick start
//
//	miner, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(4))
//	if err != nil { ... }
//	defer miner.Close()
//	ctx := context.Background()
//	for i := range workload.Records {
//		_ = miner.Feed(ctx, &workload.Records[i])
//	}
//	next, _ := miner.Predict(ctx, fileID, 4) // prefetch candidates, strongest first
//
// Open returns a Miner — the one interface every deployment shape
// implements. The same program talks to a remote farmerd daemon by
// swapping Open for Dial:
//
//	miner, err := farmer.Dial(ctx, "127.0.0.1:4727")
//
// and serves its own miner on the wire with Serve.
//
// The model combines semantic-attribute similarity (Vector Space Model over
// user/process/host/path attributes) with access-sequence frequency (linear
// decremented assignment over a lookahead window) into the correlation
// degree R(x,y) = p·sim(x,y) + (1−p)·F(x,y), keeps only degrees above the
// max_strength validity threshold, and maintains a sorted Correlator List
// per file.
//
// See the examples directory for runnable demonstrations, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured record of
// every reproduced figure and table.
package farmer

import (
	"farmer/internal/core"
	"farmer/internal/kvstore"
	"farmer/internal/obs"
	"farmer/internal/prefetch"
	"farmer/internal/rpc"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// Wire-level error sentinels, re-exported for failover-aware callers.
var (
	// ErrDisconnected marks a remote call that failed because the
	// connection died underneath it. A multi-address Dial client consumes
	// it internally (reconnect, then failover); it escapes to the caller
	// only when every configured address is down.
	ErrDisconnected = rpc.ErrDisconnected
	// ErrNotPrimary marks a write refused by an un-promoted replication
	// follower (farmerd -follow) — dial the primary, or include it in a
	// multi-address Dial so failover promotes it when the primary dies.
	ErrNotPrimary = rpc.ErrNotPrimary
	// ErrStaleEpoch marks a write refused under a lapsed or superseded
	// lease epoch (farmerd -lease-ttl): the lease moved — by expiry
	// election or a live handoff — and the refusing server provably did
	// not apply the write. A multi-address Dial client reseeks the leader
	// and retries; it escapes to the caller only when no leader is
	// reachable.
	ErrStaleEpoch = rpc.ErrStaleEpoch
)

// Lease and handoff wire types, re-exported.
type (
	// LeaseInfo is one server's view of the cluster lease: term epoch,
	// leader id, TTL, and whether the answering server holds it.
	LeaseInfo = rpc.LeaseInfo
	// WireStat is one request type's server-side latency accounting
	// (count and summed nanoseconds) from RemoteMiner.WireStats.
	WireStat = rpc.WireStat
)

// Core model types, re-exported.
type (
	// Config is the FARMER model configuration (weight p, max_strength
	// threshold, attribute mask, graph window).
	Config = core.Config
	// Model is the streaming four-stage FARMER miner.
	Model = core.Model
	// ShardedModel is the FileID-striped concurrent ensemble of Model for
	// parallel batch ingestion (Config.Shards partitions).
	ShardedModel = core.ShardedModel
	// Correlator is one Correlator-List entry: a successor with its
	// correlation degree and the degree's two components.
	Correlator = core.Correlator
	// ModelStats is a footprint snapshot used by the space-overhead
	// experiments.
	ModelStats = core.Stats
)

// Trace model types, re-exported.
type (
	// Record is one file request with semantic attributes.
	Record = trace.Record
	// Trace is an ordered sequence of Records plus schema metadata.
	Trace = trace.Trace
	// FileID identifies a file within a trace.
	FileID = trace.FileID
	// WorkloadProfile parameterises the synthetic workload generators.
	WorkloadProfile = tracegen.Profile
)

// Async prefetch pipeline, re-exported. WithPrefetcher hangs the async
// Predict/prefetch pipeline off a ShardedModel's post-ingest hook so
// ingestion — the demand path of a metadata server — never waits on
// prediction or prefetch I/O: backpressure sheds prefetch coverage.
type (
	// PrefetchCandidate is one prefetch the async pipeline wants issued.
	PrefetchCandidate = prefetch.Candidate
	// PrefetchSink receives the pipeline's prefetch submissions.
	PrefetchSink = prefetch.Sink
	// PrefetchSinkFunc adapts a function to the PrefetchSink interface.
	PrefetchSinkFunc = prefetch.SinkFunc
	// PrefetchConfig tunes the async pipeline (degree, queue bound).
	PrefetchConfig = prefetch.Config
	// Prefetcher is the running async pipeline; stop it with Stop.
	Prefetcher = prefetch.Pipeline
	// PrefetcherStats is the pipeline's throughput/loss accounting.
	PrefetcherStats = prefetch.Stats
)

// Store is the Berkeley-DB-style persistent ordered key-value store backing
// model persistence (LocalMiner.Save and Load, through
// ShardedModel.SaveCheckpoint and LoadMerged): an in-memory hash index
// fronted by a CRC-framed write-ahead log. A store holds one model and
// nothing else: a full checkpoint replaces its whole contents.
type Store = kvstore.Store

// OpenStore creates or recovers a store whose write-ahead log lives at
// path; an empty path yields a volatile in-memory store. A log that fails
// CRC or framing checks anywhere — truncated tail included — is refused
// (never silently half-loaded); RepairStore truncates it at the last intact
// record when losing the tail is acceptable.
func OpenStore(path string) (*Store, error) { return kvstore.Open(path) }

// RepairStore truncates a store's write-ahead log after its last intact
// record, dropping the corrupt or torn suffix OpenStore refuses to load. It
// returns how many records survive and how many bytes were cut.
func RepairStore(path string) (kept int, dropped int64, err error) { return kvstore.Repair(path) }

// Observability layer, re-exported. A MetricsRegistry collects live
// counters, gauges and histograms from every hot layer (ingest, prefetch,
// replication, checkpoints, prediction) at zero hot-path cost; hand one to
// a server with ServeConfig.Obs, then render it with
// WritePrometheus/WriteJSON — the body of farmerd's -metrics-addr endpoint.
type (
	// MetricsRegistry is the live-metrics registry (internal/obs).
	MetricsRegistry = obs.Registry
	// MetricLabel is one name=value pair on a metric series.
	MetricLabel = obs.Label
	// MetricSample is one flattened value from MetricsRegistry.Snapshot.
	MetricSample = obs.Sample
	// CorrelatedGroup is one correlated file group: a seed, its Correlator
	// List members, and the group strength (sum of degrees).
	CorrelatedGroup = core.CorrelatedGroup
	// TenantObs is one tenant's row of a MsgObs response: footprint, prefetch
	// and checkpoint health, replication lag, prediction accuracy, and the
	// top-k correlated groups. Collected remotely with RemoteMiner.Obs and
	// rendered by farmerctl top / tenants.
	TenantObs = rpc.TenantObs
	// ObsGroup is one correlated group inside a TenantObs row.
	ObsGroup = rpc.ObsGroup
	// FollowerLag is one replication follower's acked position and lag.
	FollowerLag = rpc.FollowerLag
)

// NeverCheckpointed is TenantObs.CkptAgeMS's sentinel for a miner that has
// never completed a checkpoint.
const NeverCheckpointed = rpc.NeverCheckpointed

// NewMetricsRegistry returns an empty live-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// Semantic attribute machinery, re-exported.
type (
	// Attr is a semantic attribute (user, process, host, path, file id).
	Attr = vsm.Attr
	// AttrMask is a set of attributes enabled for similarity mining.
	AttrMask = vsm.Mask
)

// Attribute constants.
const (
	AttrUser    = vsm.AttrUser
	AttrProcess = vsm.AttrProcess
	AttrHost    = vsm.AttrHost
	AttrPath    = vsm.AttrPath
	AttrFileID  = vsm.AttrFileID
	AttrDevice  = vsm.AttrDevice
)

// DefaultConfig returns the paper's chosen parameters: weight p = 0.7,
// max_strength = 0.4, IPA path handling, window-3 linear decremented
// assignment, and the full {User, Process, Host, File Path} attribute mask.
func DefaultConfig() Config { return core.DefaultConfig() }

// ConfigFor returns the default configuration adapted to a trace's schema:
// path attributes when available, file-id + device otherwise.
func ConfigFor(t *Trace) Config {
	cfg := core.DefaultConfig()
	cfg.Mask = vsm.DefaultMask(t.HasPaths)
	return cfg
}

// MaskOf builds an attribute mask.
func MaskOf(attrs ...Attr) AttrMask { return vsm.MaskOf(attrs...) }

// Workload profiles matching the paper's four traces.
var (
	// LLNL builds the parallel-scientific profile (800-node cluster).
	LLNL = tracegen.LLNL
	// INS builds the instructional-lab profile (HP-UX, 20 machines).
	INS = tracegen.INS
	// RES builds the research-desktop profile (HP-UX, 13 machines).
	RES = tracegen.RES
	// HP builds the 236-user time-sharing-server profile.
	HP = tracegen.HP
)

// Generate builds a synthetic trace from a profile.
func Generate(p WorkloadProfile) (*Trace, error) { return p.Generate() }
