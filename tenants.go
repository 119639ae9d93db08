package farmer

// tenants.go is the multi-tenant core of Serve: a Registry mapping tenant
// ids to lazily opened miners, each with its own store, checkpoint
// schedule, replication stream and resource budget. The wire layer stays
// tenant-agnostic — the Registry plugs in as internal/rpc's Resolver, and
// every admission refusal travels typed (ErrTenantBudget) so one
// over-budget tenant cannot degrade its neighbors' streams.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"farmer/internal/rpc"
)

// Typed sentinels for the multi-tenant edge, re-exported from the wire
// layer so callers never import internal/rpc. Match with errors.Is.
var (
	// ErrTenantBudget reports a tenant refused by admission control: too
	// many live tenants, or a model footprint past its MaxMemoryBytes cap.
	ErrTenantBudget = rpc.ErrTenantBudget
	// ErrUnauthorized reports a bearer token the server does not know, or
	// one not granted the addressed tenant.
	ErrUnauthorized = rpc.ErrUnauthorized
	// ErrBadVersion reports a protocol-version mismatch between client and
	// server (a tenant-aware client dialing a pre-tenant farmerd, or the
	// reverse).
	ErrBadVersion = rpc.ErrBadVersion
)

// TenantBudget caps one tenant's resource footprint, enforced continuously
// on the feed path (throttled to every budgetCheckStride records). Zero is
// unlimited.
type TenantBudget struct {
	// MaxMemoryBytes caps the tenant model's estimated footprint
	// (ModelStats.MemoryBytes); feeds are refused with ErrTenantBudget
	// once it is exceeded.
	MaxMemoryBytes int64
}

// TenantsConfig turns Serve multi-tenant (ServeConfig.Tenants): frames
// carrying a tenant id lazily open one miner per tenant, configured
// uniformly from this struct.
type TenantsConfig struct {
	// Dir is the per-tenant store layout root: tenant t persists at
	// Dir/t/store.wal (farmerd -tenants-dir). Empty means tenants are
	// memory-only — they still mine, but are never checkpointed and are
	// not eligible for idle eviction.
	Dir string
	// Config is the mining configuration for lazily opened tenants. A
	// zero Weight and MaxStrength means DefaultConfig().
	Config Config
	// Shards stripes each tenant's miner (0/1 = one shard).
	Shards int
	// Prefetch, when non-nil, attaches the async predict pipeline to each
	// tenant miner (candidates are discarded; the pipeline still predicts
	// and accounts).
	Prefetch *PrefetchConfig
	// Budget is every named tenant's admission-control budget (the default
	// tenant — the caller's own miner — is not budgeted).
	Budget TenantBudget
	// MaxTenants caps concurrently live named tenants (0 = unlimited);
	// opening one more is refused with ErrTenantBudget.
	MaxTenants int
	// IdleAfter evicts a named tenant untouched for this long: its state
	// is checkpointed into its store and the miner closed; the next frame
	// for it reopens from the store. 0 disables eviction. Tenants without
	// a store (Dir == "") and replicated deployments are never evicted —
	// eviction would drop memory-only state, or orphan follower streams.
	IdleAfter time.Duration
}

// Registry is the tenant → miner map behind a multi-tenant Serve. It
// implements internal/rpc's Resolver: the server hands it each frame's
// tenant id, and it returns that tenant's serving backend, opening the
// tenant (miner + store + replication stream) on first touch. All methods
// are safe for concurrent use.
type Registry struct {
	cfg        *TenantsConfig // nil = single-tenant (named tenants refused)
	logf       func(format string, args ...any)
	follower   bool
	saveBudget time.Duration

	replicateTo []string
	// leaseSt is shared by every tenant backend; its replicaAck and dialOpts
	// (Tenant is stamped per tenant) also dial each tenant's stream.
	leaseSt *leaseState

	mu      sync.Mutex
	tenants map[string]*tenantEntry
	closed  bool
}

// tenantEntry is one live tenant. owned reports whether the Registry
// opened the miner (and therefore closes it on eviction/drain); the
// default tenant's miner belongs to Serve's caller.
type tenantEntry struct {
	name    string
	m       *LocalMiner
	backend *serveBackend
	owned   bool
	lastUse time.Time // guarded by Registry.mu
	// closing is non-nil from the moment evictIdle claims the entry and is
	// closed once the miner is: until then the entry stays in the map, so
	// nothing opens a second miner on a store.wal still being written.
	// Guarded by Registry.mu.
	closing chan struct{}
}

func newRegistry(cfg ServeConfig, saveBudget time.Duration, leaseSt *leaseState) *Registry {
	return &Registry{
		cfg:         cfg.Tenants,
		logf:        cfg.Logf,
		follower:    cfg.Follower,
		saveBudget:  saveBudget,
		replicateTo: cfg.ReplicateTo,
		leaseSt:     leaseSt,
		tenants:     make(map[string]*tenantEntry),
	}
}

// registerDefault installs the caller's miner as the default tenant.
func (g *Registry) registerDefault(m *LocalMiner, b *serveBackend) {
	g.mu.Lock()
	g.tenants[""] = &tenantEntry{name: "", m: m, backend: b, lastUse: time.Now()}
	g.mu.Unlock()
}

var _ rpc.Resolver = (*Registry)(nil)

// BackendFor implements rpc.Resolver: resolve (or lazily open) the
// tenant's serving backend. Admission refusals wrap ErrTenantBudget. A
// tenant met in the middle of its idle eviction is waited for outside g.mu
// (no neighbour stalls behind the eviction's checkpoint) and then reopened
// from the store that checkpoint went to.
func (g *Registry) BackendFor(tenant string) (rpc.Backend, error) {
	for {
		g.mu.Lock()
		e := g.tenants[tenant]
		if e == nil {
			e, err := g.openLocked(tenant)
			g.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return e.backend, nil
		}
		closing := e.closing
		if closing == nil {
			e.lastUse = time.Now()
			g.mu.Unlock()
			return e.backend, nil
		}
		g.mu.Unlock()
		<-closing
	}
}

// openLocked admits and opens one named tenant under g.mu. Holding the
// lock through the open serializes concurrent first touches of the same
// tenant; the store open is local disk I/O, brief at this tier, and the
// follower attaches are bounded (leaseState.replicate).
func (g *Registry) openLocked(tenant string) (*tenantEntry, error) {
	if g.closed {
		return nil, errors.New("farmer: server is draining")
	}
	if g.cfg == nil {
		return nil, fmt.Errorf("farmer: unknown tenant %q (multi-tenant serving not enabled; start farmerd with -tenants-dir)", tenant)
	}
	if g.cfg.MaxTenants > 0 {
		named := len(g.tenants)
		if _, ok := g.tenants[""]; ok {
			named--
		}
		if named >= g.cfg.MaxTenants {
			return nil, fmt.Errorf("%w: tenant %q refused, %d tenants live (MaxTenants %d)",
				ErrTenantBudget, tenant, named, g.cfg.MaxTenants)
		}
	}
	cfg := g.cfg.Config
	if cfg.Weight == 0 && cfg.MaxStrength == 0 {
		cfg = DefaultConfig()
	}
	opts := []Option{WithShards(g.cfg.Shards)}
	if g.cfg.Prefetch != nil {
		opts = append(opts, WithPrefetcher(nil, *g.cfg.Prefetch))
	}
	if g.cfg.Dir != "" {
		dir := filepath.Join(g.cfg.Dir, tenant)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("farmer: creating tenant %q store dir: %w", tenant, err)
		}
		// Followers load too: a follower tenant's own checkpoint is what
		// makes a delta catch-up possible — the primary replays just the
		// records past its position. A checkpoint the primary cannot resume
		// from simply makes it fall back to a full cut, which resets the
		// miner before installing.
		opts = append(opts, WithStore(filepath.Join(dir, "store.wal")), WithLoad())
	}
	m, err := Open(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("farmer: opening tenant %q: %w", tenant, err)
	}
	// Untimed, a term is scoped to one replication stream: promoting this
	// tenant must not make a neighbor writable while its link is attached.
	holder := g.leaseSt.holder
	if holder.TTL() <= 0 {
		holder = newHolder(holder.Self(), 0, g.follower)
	}
	b := &serveBackend{
		m: m, saveBudget: g.saveBudget,
		logf:   func(format string, args ...any) { g.logf("tenant %q: "+format, append([]any{tenant}, args...)...) },
		tenant: tenant, budget: g.cfg.Budget,
		holder: holder, lease: g.leaseSt,
	}
	b.memPending.Store(budgetCheckStride) // first feed checks the footprint
	if len(g.replicateTo) > 0 {
		// g.mu is held, and every frame of every tenant takes it: replicate
		// bounds each attach, so one tenant's dead follower delays its
		// neighbors by at most the ack timeout per address.
		_ = g.leaseSt.replicate(context.Background(), b, g.replicateTo, false) // !must: failures are logged, not returned
	}
	e := &tenantEntry{name: tenant, m: m, backend: b, owned: true, lastUse: time.Now()}
	g.tenants[tenant] = e
	g.logf("tenant %q opened", tenant)
	return e, nil
}

// Tenants implements rpc.Resolver: a stats snapshot of every live tenant,
// default first then lexicographic — the body of `farmerctl tenants`.
func (g *Registry) Tenants() []rpc.TenantInfo {
	entries := g.snapshot()
	infos := make([]rpc.TenantInfo, len(entries))
	for i, e := range entries {
		infos[i] = rpc.TenantInfo{Name: e.name, Stats: e.backend.Stats()}
	}
	return infos
}

var _ rpc.ObsResolver = (*Registry)(nil)

// TenantObs implements rpc.ObsResolver: one observability row per live
// tenant, default first then lexicographic — the body of the MsgObs frame
// behind `farmerctl top` and the tenant columns of `farmerctl tenants`.
// The wire layer stamps its own per-tenant feed accounting on top and
// filters the rows to the connection's grants.
func (g *Registry) TenantObs(topK int) []rpc.TenantObs {
	entries := g.snapshot()
	rows := make([]rpc.TenantObs, len(entries))
	for i, e := range entries {
		rows[i] = e.backend.TenantObs(topK)
		rows[i].Name = e.name
	}
	return rows
}

// checkpointAll saves every stored tenant (the serve loop's checkpoint
// tick); the first error is returned after the sweep completes.
func (g *Registry) checkpointAll() error {
	var first error
	for _, e := range g.snapshot() {
		if e.m.store == nil {
			continue
		}
		if err := e.backend.Save(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// evictIdle closes named tenants idle past IdleAfter, checkpointing each
// first so the next touch reopens with full state. Replicated deployments
// never evict: tearing down a tenant's stream would orphan its followers
// (a re-opened tenant's catch-up cut cannot install over their state).
func (g *Registry) evictIdle() {
	if g.cfg == nil || g.cfg.IdleAfter <= 0 || g.cfg.Dir == "" ||
		g.follower || len(g.replicateTo) > 0 {
		return
	}
	now := time.Now()
	var evict []*tenantEntry
	g.mu.Lock()
	for _, e := range g.tenants {
		if !e.owned || now.Sub(e.lastUse) < g.cfg.IdleAfter {
			continue
		}
		e.closing = make(chan struct{})
		evict = append(evict, e)
	}
	g.mu.Unlock()
	for _, e := range evict {
		ctx, cancel := context.WithTimeout(context.Background(), g.saveBudget)
		err := e.m.Save(ctx)
		cancel()
		if err != nil {
			g.logf("tenant %q: eviction checkpoint failed (tenant closed anyway): %v", e.name, err)
		}
		e.m.Close()
		g.mu.Lock()
		delete(g.tenants, e.name)
		g.mu.Unlock()
		close(e.closing)
		g.logf("tenant %q evicted after %v idle", e.name, g.cfg.IdleAfter)
	}
}

// closeReplicators flushes and closes every tenant's replication stream —
// run before the final checkpoints so a clean shutdown leaves followers
// holding everything the primary acked. Idempotent.
func (g *Registry) closeReplicators() {
	for _, e := range g.snapshot() {
		if repl := e.backend.replicator(); repl != nil {
			repl.Close()
		}
	}
}

// drainAll writes every stored tenant's final checkpoint and closes the
// registry-owned miners (the default tenant's miner belongs to the
// caller). dctx bounds the whole sweep. The first error is returned.
func (g *Registry) drainAll(dctx context.Context) error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	var first error
	for _, e := range g.snapshot() {
		if e.m.store != nil {
			if err := e.m.Save(dctx); err != nil && first == nil {
				first = err
			}
		}
		if e.owned {
			e.m.Close()
		}
	}
	return first
}

// snapshot returns the live tenants, default first then lexicographic — the
// order every listing shows and every sweep walks. A tenant being evicted is
// not live: its miner may already be closed.
func (g *Registry) snapshot() []*tenantEntry {
	g.mu.Lock()
	entries := make([]*tenantEntry, 0, len(g.tenants))
	for _, e := range g.tenants {
		if e.closing == nil {
			entries = append(entries, e)
		}
	}
	g.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}
