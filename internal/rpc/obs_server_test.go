package rpc

// Wire-level MsgObs tests: the single-tenant fallback row, grant filtering,
// the unsupported-resolver error, the server's wire-counter registration,
// and the replicator's per-follower lag sampling.

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"farmer/internal/obs"
	"farmer/internal/trace"
)

// obsMapResolver is mapResolver plus an ObsResolver implementation built
// from each backend's stats.
type obsMapResolver struct{ mapResolver }

func (m obsMapResolver) TenantObs(topK int) []TenantObs {
	var rows []TenantObs
	for name, b := range m.mapResolver {
		st := b.Stats()
		rows = append(rows, TenantObs{Name: name, Fed: st.Fed})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// TestObsSingleTenantFallback: NewServer wraps a plain Backend (no
// TenantObs method) in singleResolver, whose fallback row is synthesized
// from Stats — plus the wire layer's feed-frame stamping.
func TestObsSingleTenantFallback(t *testing.T) {
	b := newMinerBackend(2)
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	recs := []trace.Record{{File: 1, Path: "/a"}, {File: 2, Path: "/b"}, {File: 3, Path: "/c"}}
	if err := c.FeedBatch(ctx, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Obs(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "" {
		t.Fatalf("rows %+v, want one default-tenant row", rows)
	}
	if rows[0].Fed != 3 || rows[0].FeedRecords != 3 || rows[0].FeedFrames != 1 {
		t.Fatalf("Fed=%d FeedRecords=%d FeedFrames=%d, want 3/3/1",
			rows[0].Fed, rows[0].FeedRecords, rows[0].FeedFrames)
	}
	if rows[0].MemoryBytes == 0 {
		t.Fatal("fallback row carried no footprint")
	}
}

// TestObsGrantFilteredAndCounters: a resolver-level TenantObs is filtered
// to the token's grant, and ServerOptions.Obs registers the wire counters
// (per-tenant families labeled with "default" for the empty tenant).
func TestObsGrantFilteredAndCounters(t *testing.T) {
	res := obsMapResolver{mapResolver{
		"":  newMinerBackend(1),
		"a": newMinerBackend(1),
		"b": newMinerBackend(1),
	}}
	reg := obs.New()
	addr, stop := startResolverServer(t, res, ServerOptions{
		Obs: reg,
		AuthTokens: map[string][]string{
			"root": {"*"},
			"only": {"a"},
		},
	})
	defer stop()
	ctx := context.Background()

	feed := func(tenant, token string, n int) {
		c, err := DialWith(ctx, addr, DialOptions{Tenant: tenant, Token: token})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{File: trace.FileID(i + 1), Path: "/x"}
		}
		if err := c.FeedBatch(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	feed("", "root", 2)
	feed("a", "only", 4)

	root, err := DialWith(ctx, addr, DialOptions{Token: "root"})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	rows, err := root.Obs(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "" || rows[1].Name != "a" || rows[2].Name != "b" {
		t.Fatalf("root sees %+v, want all three tenants sorted", rows)
	}
	if rows[1].FeedRecords != 4 || rows[2].FeedRecords != 0 {
		t.Fatalf("stamped FeedRecords a=%d b=%d, want 4 and 0", rows[1].FeedRecords, rows[2].FeedRecords)
	}

	restricted, err := DialWith(ctx, addr, DialOptions{Tenant: "a", Token: "only"})
	if err != nil {
		t.Fatal(err)
	}
	defer restricted.Close()
	rows, err = restricted.Obs(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "a" {
		t.Fatalf("restricted token sees %+v, want only tenant a", rows)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	for _, series := range []string{
		`farmer_rpc_tenant_feed_records_total{tenant="default"} 2`,
		`farmer_rpc_tenant_feed_records_total{tenant="a"} 4`,
		`farmer_rpc_tenant_feed_frames_total{tenant="a"} 1`,
		"farmer_rpc_connections_total",
		"farmer_rpc_bytes_read_total",
	} {
		if !strings.Contains(scrape, series) {
			t.Fatalf("scrape missing %q:\n%s", series, scrape)
		}
	}
}

// TestObsUnsupportedResolver: a resolver without TenantObs answers MsgObs
// with a typed application error, not a hangup.
func TestObsUnsupportedResolver(t *testing.T) {
	addr, stop := startResolverServer(t, mapResolver{"": newMinerBackend(1)}, ServerOptions{})
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	_, err := c.Obs(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "observability") {
		t.Fatalf("err = %v, want an unsupported-observability error", err)
	}
	// The connection survives the application error.
	if _, err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after obs error: %v", err)
	}
}

// TestReplicatorLags: after a fully-acked ingest the attached follower's
// sampled lag is zero and its acked position equals the stream position.
func TestReplicatorLags(t *testing.T) {
	rec := &replicaRecorder{minerBackend: newMinerBackend(1)}
	addr, _, stop := startServer(t, rec)
	defer stop()

	var miner fedCounter
	r := NewReplicator(miner.fed, time.Minute, DialOptions{}, noFingerprint, nil)
	defer r.Close()
	if err := r.Attach(context.Background(), addr, func() (CatchupCut, error) {
		return CatchupCut{FileCount: 1, Snapshot: []byte("snap")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if lags := r.Lags(); len(lags) != 1 || lags[0].Lag != 0 {
		t.Fatalf("fresh attach lags %+v, want one caught-up follower", lags)
	}
	recs := []trace.Record{{File: 1, Path: "/p"}, {File: 2, Path: "/p"}}
	if err := r.Ingest(context.Background(), recs, miner.mine(len(recs))); err != nil {
		t.Fatal(err)
	}
	lags := r.Lags()
	if len(lags) != 1 {
		t.Fatalf("lags %+v, want one follower", lags)
	}
	if lags[0].Addr != addr || lags[0].Acked != 2 || lags[0].Lag != 0 {
		t.Fatalf("lags[0] = %+v, want addr=%s acked=2 lag=0", lags[0], addr)
	}
}

// TestWireStatsReadsTheMetricsHistogram: MsgWireStats and /metrics read one
// instrument — after N pings the ping row's Count and SumNS are exactly the
// farmer_rpc_latency_ns{msg="ping"} histogram's _count and _sum.
func TestWireStatsReadsTheMetricsHistogram(t *testing.T) {
	reg := obs.New()
	addr, stop := startResolverServer(t, mapResolver{"": newMinerBackend(1)}, ServerOptions{Obs: reg})
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	const pings = 5
	for i := 0; i < pings; i++ {
		if _, err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.WireStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ping WireStat
	for _, s := range stats {
		if s.Type == MsgPing {
			ping = s
		}
	}
	if ping.Count != pings || ping.SumNS == 0 {
		t.Fatalf("WireStats ping row %+v, want %d pings with a nonzero sum", ping, pings)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := func(suffix string) string {
		prefix := `farmer_rpc_latency_ns_` + suffix + `{msg="ping"} `
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		t.Fatalf("no %q series in the scrape:\n%s", prefix, sb.String())
		return ""
	}
	if got, want := series("count"), strconv.FormatUint(ping.Count, 10); got != want {
		t.Errorf("/metrics ping _count %s, WireStats %s", got, want)
	}
	if got, want := series("sum"), strconv.FormatUint(ping.SumNS, 10); got != want {
		t.Errorf("/metrics ping _sum %s, WireStats %s", got, want)
	}
}
