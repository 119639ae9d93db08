package farmer

// A named tenant mines the serving miner's model: its Config, shard count
// included, whatever the parameters say — zero ones too.

import (
	"context"
	"net"
	"reflect"
	"testing"

	"farmer/internal/core"
)

// TestNamedTenantMinesTheServingConfig serves a miner opened the way
// farmerd -weight 0 -strength 0 -shards 3 opens one, feeds a trace to
// tenant "t", and reads the tenant's miner where the drain checkpoints it:
// its Config is the serving miner's, and its lists are a sequential
// core.Model's mined with that Config.
func TestNamedTenantMinesTheServingConfig(t *testing.T) {
	tr, err := Generate(HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFor(tr)
	cfg.Weight, cfg.MaxStrength = 0, 0
	served, err := Open(cfg, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()

	// The default tenant has no store, so the drain's only save is the
	// tenant's.
	saved := make(chan *ShardedModel, 1)
	saveToStore = func(sm *ShardedModel, _ *Store) error {
		select {
		case saved <- sm:
		default:
		}
		return nil
	}
	defer func() { saveToStore = nil }()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, lis, served, ServeConfig{Tenants: &TenantsConfig{Dir: t.TempDir()}}) }()
	c, err := Dial(ctx, lis.Addr().String(), WithTenant("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	c.Close()
	stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var tenant *ShardedModel
	select {
	case tenant = <-saved:
	default:
		t.Fatal("the drain checkpointed no tenant")
	}
	if got, want := tenant.Config(), served.sm.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant mines with %+v, the serving miner with %+v", got, want)
	}
	seq := core.New(cfg)
	for i := range tr.Records {
		seq.Feed(&tr.Records[i])
	}
	if got, want := core.StateFingerprint(tenant, tr.FileCount), core.StateFingerprint(seq, tr.FileCount); got != want {
		t.Fatalf("tenant fingerprint %#x, sequential model's %#x", got, want)
	}
}
