package farmer

// Idle eviction of named tenants (TenantsConfig.IdleAfter): the plain
// lifecycle, the deployments that never evict, and a frame that arrives
// while the eviction checkpoint is still being written.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer/internal/core"
)

// evictLog collects a registry's log lines.
type evictLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *evictLog) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *evictLog) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// evictRegistry builds the Registry a Serve with this configuration would,
// without the listener: BackendFor and evictIdle are driven directly.
func evictRegistry(cfg ServeConfig) (*Registry, *evictLog) {
	log := new(evictLog)
	cfg.Logf = log.logf
	return newRegistry(cfg, time.Minute, &leaseState{
		holder:     newHolder("self:1", 0, cfg.Follower),
		replicaAck: 200 * time.Millisecond,
	}), log
}

// backdate makes a live tenant look untouched for an hour.
func (g *Registry) backdate(tenant string) {
	g.mu.Lock()
	g.tenants[tenant].lastUse = time.Now().Add(-time.Hour)
	g.mu.Unlock()
}

// minedState is what a reopened tenant must equal: the record count, the
// fingerprint replication verifies, and the lists themselves for a sample
// of files.
type minedState struct {
	fed   uint64
	fp    uint64
	lists [][]Correlator
}

func stateOf(b *serveBackend, fileCount int) minedState {
	s := minedState{fed: b.Stats().Fed, fp: core.StateFingerprint(b.m.sm, fileCount)}
	for f := 0; f < fileCount; f += 37 {
		s.lists = append(s.lists, b.CorrelatorList(FileID(f)))
	}
	return s
}

func feedTenant(t *testing.T, g *Registry, tenant string, tr *Trace) *serveBackend {
	t.Helper()
	b, err := g.BackendFor(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FeedBatch(tr.Records); err != nil {
		t.Fatal(err)
	}
	return b.(*serveBackend)
}

// TestEvictIdleLifecycle: feed, sit idle past IdleAfter, get checkpointed and
// closed, and come back on the next frame with exactly the state that left.
func TestEvictIdleLifecycle(t *testing.T) {
	tr, err := Generate(HP(1000))
	if err != nil {
		t.Fatal(err)
	}
	g, log := evictRegistry(ServeConfig{Tenants: &TenantsConfig{Dir: t.TempDir(), IdleAfter: time.Minute}})
	defer g.drainAll(t.Context())
	b := feedTenant(t, g, "t", tr)
	want := stateOf(b, tr.FileCount)

	g.evictIdle()
	if n := log.count("evicted"); n != 0 {
		t.Fatalf("a tenant fed a moment ago was evicted (%d eviction lines)", n)
	}
	g.backdate("t")
	g.evictIdle()
	if log.count(`tenant "t" evicted after 1m0s idle`) != 1 {
		t.Fatalf("no eviction logged: %q", log.lines)
	}
	if len(g.snapshot()) != 0 {
		t.Fatal("the evicted tenant is still listed")
	}
	if err := b.m.store.Compact(); err == nil { // only a closed store refuses
		t.Fatal("the evicted tenant's store is still open")
	}

	again, err := g.BackendFor("t")
	if err != nil {
		t.Fatal(err)
	}
	if again == b {
		t.Fatal("the next frame was handed the closed miner")
	}
	if got := stateOf(again.(*serveBackend), tr.FileCount); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened tenant: fed %d fingerprint %x, evicted one: fed %d fingerprint %x (or a sampled list differs)",
			got.fed, got.fp, want.fed, want.fp)
	}
	if log.count(`tenant "t" opened`) != 2 {
		t.Fatalf("want the tenant opened twice: %q", log.lines)
	}
}

// TestEvictIdleNeverEvicts: a follower, a replicating primary and a registry
// without stores keep their idle tenants — eviction would orphan a stream or
// drop memory-only state.
func TestEvictIdleNeverEvicts(t *testing.T) {
	for name, cfg := range map[string]ServeConfig{
		"follower":    {Follower: true, Tenants: &TenantsConfig{Dir: t.TempDir(), IdleAfter: time.Minute}},
		"replicated":  {ReplicateTo: []string{"127.0.0.1:1"}, Tenants: &TenantsConfig{Dir: t.TempDir(), IdleAfter: time.Minute}},
		"memory-only": {Tenants: &TenantsConfig{IdleAfter: time.Minute}},
	} {
		t.Run(name, func(t *testing.T) {
			g, log := evictRegistry(cfg)
			defer g.drainAll(t.Context())
			defer g.closeReplicators()
			b, err := g.BackendFor("t")
			if err != nil {
				t.Fatal(err)
			}
			g.backdate("t")
			g.evictIdle()
			if again, err := g.BackendFor("t"); err != nil || again != b || log.count("evicted") != 0 {
				t.Fatalf("idle tenant did not stay: same backend %v, err %v, log %q", again == b, err, log.lines)
			}
		})
	}
}

// TestEvictIdleRacesReopen: a frame for a tenant whose eviction checkpoint is
// still being written must not open a second miner on the same store.wal (it
// would restart from the previous checkpoint while the first still appends):
// it waits for the eviction, then reopens what the checkpoint holds. The
// wait is outside the registry lock, so a neighbour is served meanwhile.
func TestEvictIdleRacesReopen(t *testing.T) {
	tr, err := Generate(HP(1000))
	if err != nil {
		t.Fatal(err)
	}
	g, log := evictRegistry(ServeConfig{Tenants: &TenantsConfig{Dir: t.TempDir(), IdleAfter: time.Minute}})
	defer g.drainAll(t.Context())
	victim := feedTenant(t, g, "t", tr)
	want := stateOf(victim, tr.FileCount)
	feedTenant(t, g, "n", tr)
	g.backdate("t")

	saving, release := make(chan struct{}), make(chan struct{})
	saveToStore = func(sm *ShardedModel, st *Store) error {
		if sm == victim.m.sm {
			close(saving)
			<-release
		}
		return victim.m.checkpoint(sm, st)
	}
	defer func() { saveToStore = nil }()
	evicted := make(chan struct{})
	go func() { g.evictIdle(); close(evicted) }()
	<-saving

	if n, err := g.BackendFor("n"); err != nil || n.Stats().Fed != uint64(len(tr.Records)) {
		t.Fatalf("neighbour while the eviction save is blocked: %v", err)
	}
	type reopened struct {
		b   *serveBackend
		err error
	}
	got := make(chan reopened, 1)
	go func() {
		b, err := g.BackendFor("t")
		sb, _ := b.(*serveBackend)
		got <- reopened{sb, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		t.Fatalf("a frame met its tenant mid-eviction and was served at once: fed %d of %d acked records, %d opens of one store.wal logged",
			r.b.Stats().Fed, want.fed, log.count(`tenant "t" opened`))
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	r := <-got
	<-evicted
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.b == victim {
		t.Fatal("the frame was handed the closed miner")
	}
	if state := stateOf(r.b, tr.FileCount); !reflect.DeepEqual(state, want) {
		t.Fatalf("reopened tenant: fed %d fingerprint %x, evicted one: fed %d fingerprint %x (or a sampled list differs)",
			state.fed, state.fp, want.fed, want.fp)
	}
}
