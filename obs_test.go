package farmer_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"farmer"
)

// TestObsReplicatedEndToEnd drives the whole observability surface on a
// replicated pair: AttachMetrics (the seam onto what Serve runs for
// ServeConfig.Obs) registers the miner series, Serve adds the replication
// gauges, MsgObs carries the row to a remote client, and after a fully-acked
// feed the follower lag reads zero.
func TestObsReplicatedEndToEnd(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(6000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()

	follower, err := farmer.Open(cfg, farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fAddr, fStop := startServe(t, follower, farmer.ServeConfig{Follower: true})
	defer fStop()

	reg := farmer.NewMetricsRegistry()
	primary, err := farmer.Open(cfg,
		farmer.WithShards(2),
		farmer.WithPrefetcher(nil, farmer.PrefetchConfig{K: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.AttachMetrics(reg)
	pAddr, pStop := startServe(t, primary, farmer.ServeConfig{
		Obs:         reg,
		ReplicateTo: []string{fAddr},
	})
	defer pStop()

	client, err := farmer.Dial(ctx, pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}

	rows, err := client.Obs(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("obs returned %d rows, want 1", len(rows))
	}
	row := rows[0]
	if row.Name != "" {
		t.Fatalf("default tenant named %q", row.Name)
	}
	if row.Fed != uint64(len(tr.Records)) {
		t.Fatalf("row.Fed = %d, want %d", row.Fed, len(tr.Records))
	}
	if row.FeedRecords != uint64(len(tr.Records)) || row.FeedFrames == 0 {
		t.Fatalf("wire accounting FeedRecords=%d FeedFrames=%d", row.FeedRecords, row.FeedFrames)
	}
	if row.Followers != 1 {
		t.Fatalf("row.Followers = %d, want 1", row.Followers)
	}
	// The client ack arrives only after the follower acked, so a drained
	// feed leaves zero replication lag.
	if row.ReplLagMax != 0 {
		t.Fatalf("row.ReplLagMax = %d, want 0", row.ReplLagMax)
	}
	if row.CkptAgeMS != farmer.NeverCheckpointed {
		t.Fatalf("memory-only miner reports checkpoint age %d", row.CkptAgeMS)
	}
	if row.MemoryBytes == 0 {
		t.Fatal("row.MemoryBytes = 0 after mining a trace")
	}
	if row.PredPredicted == 0 {
		t.Fatal("prefetcher attached but row.PredPredicted = 0")
	}
	if len(row.Groups) == 0 || len(row.Groups) > 5 {
		t.Fatalf("row.Groups has %d entries, want 1..5", len(row.Groups))
	}
	// Rows agree with the model's own ranking, strongest first.
	want := primary.Sharded().TopGroups(5)
	for i, g := range row.Groups {
		if g.Seed != want[i].Seed || g.Strength != want[i].Strength {
			t.Fatalf("group %d: wire (%d, %v) != model (%d, %v)",
				i, g.Seed, g.Strength, want[i].Seed, want[i].Strength)
		}
	}

	// The same registry renders the replication gauges Serve registered.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	for _, series := range []string{
		"farmer_repl_followers 1",
		`farmer_repl_lag_records{follower="` + fAddr + `"} 0`,
		"farmer_rpc_connections_total",
		"farmer_predict_accuracy",
		"farmer_prefetch_queue_depth",
		"farmer_prefetch_dropped_total",
	} {
		if !strings.Contains(scrape, series) {
			t.Fatalf("scrape missing %q:\n%s", series, scrape)
		}
	}

	// Asking for zero groups is the cheap health-poll shape.
	rows, err = client.Obs(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0].Groups) != 0 {
		t.Fatalf("topK=0 returned %d groups", len(rows[0].Groups))
	}
}

// TestReplGaugesFollowAHandoff: a standalone source registers the
// replication gauges with nothing to report (followers 0, no lag series),
// and once a live handoff gives it a replication stream mid-serve its
// scrape shows the target on that stream.
func TestReplGaugesFollowAHandoff(t *testing.T) {
	ctx := context.Background()
	const ttl = time.Second
	target, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	tAddr, tStop := startServe(t, target, farmer.ServeConfig{Follower: true, LeaseTTL: ttl})
	defer tStop()

	reg := farmer.NewMetricsRegistry()
	source, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	sAddr, sStop := startServe(t, source, farmer.ServeConfig{Obs: reg, LeaseTTL: ttl})
	defer sStop()
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	admin, err := farmer.Dial(ctx, sAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.FeedBatch(ctx, []farmer.Record{{File: 1}, {File: 2}}); err != nil {
		t.Fatal(err)
	}
	if s := scrape(); !strings.Contains(s, "farmer_repl_followers 0") || strings.Contains(s, "farmer_repl_lag_records{") {
		t.Fatalf("standalone source scrape, want farmer_repl_followers 0 and no lag series:\n%s", s)
	}
	if err := admin.Handoff(ctx, tAddr); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	s := scrape()
	for _, series := range []string{
		"farmer_repl_followers 1",
		`farmer_repl_lag_records{follower="` + tAddr + `"} 0`,
		"farmer_handoffs_total 1",
		"farmer_lease_epoch 2",
	} {
		if !strings.Contains(s, series) {
			t.Fatalf("scrape after the handoff missing %q:\n%s", series, s)
		}
	}
}

// TestObsMultiTenantGrantFiltered: MsgObs rows come back sorted (default
// tenant first), stamped with per-tenant wire accounting, and a restricted
// token's view is filtered to its grant exactly like MsgTenants.
func TestObsMultiTenantGrantFiltered(t *testing.T) {
	server, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	reg := farmer.NewMetricsRegistry()
	addr, stop := startServe(t, server, farmer.ServeConfig{
		Obs:     reg,
		Tenants: &farmer.TenantsConfig{},
		AuthTokens: map[string][]string{
			"root-secret":  {"*"},
			"alpha-secret": {"alpha"},
		},
	})
	defer stop()

	ctx := context.Background()
	feed := func(tenant, token string, files ...farmer.FileID) {
		m, err := farmer.Dial(ctx, addr, farmer.WithTenant(tenant), farmer.WithToken(token))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		recs := make([]farmer.Record, len(files))
		for i, f := range files {
			recs[i] = farmer.Record{Seq: uint64(i), File: f, Path: "/d"}
		}
		if err := m.FeedBatch(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	feed("alpha", "alpha-secret", 1, 2, 3)
	feed("beta", "root-secret", 7, 8)

	root, err := farmer.Dial(ctx, addr, farmer.WithToken("root-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	rows, err := root.Obs(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
	}
	if len(rows) != 3 || rows[0].Name != "" || rows[1].Name != "alpha" || rows[2].Name != "beta" {
		t.Fatalf("root sees %v, want [ alpha beta]", names)
	}
	if rows[1].Fed != 3 || rows[1].FeedRecords != 3 || rows[2].Fed != 2 {
		t.Fatalf("per-tenant counts: alpha Fed=%d FeedRecords=%d, beta Fed=%d",
			rows[1].Fed, rows[1].FeedRecords, rows[2].Fed)
	}

	restricted, err := farmer.Dial(ctx, addr,
		farmer.WithTenant("alpha"), farmer.WithToken("alpha-secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer restricted.Close()
	rows, err = restricted.Obs(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "alpha" {
		t.Fatalf("restricted token sees %d rows (first %q), want its one grant", len(rows), rows[0].Name)
	}
}
