package farmer_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"strings"

	"farmer"
)

// sequence builds a deterministic little workload: the files repeat in
// order, so every file's strongest successor is the next one in the cycle.
func sequence(files ...farmer.FileID) []farmer.Record {
	var recs []farmer.Record
	for round := 0; round < 12; round++ {
		for _, f := range files {
			recs = append(recs, farmer.Record{
				Seq:  uint64(len(recs)),
				File: f,
				UID:  7,
				PID:  40,
				Host: 3,
				Path: fmt.Sprintf("/project/data/%d", f),
			})
		}
	}
	return recs
}

// ExampleOpen mines a deterministic access sequence with the option-style
// constructor and asks for prefetch candidates.
func ExampleOpen() {
	miner, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	defer miner.Close()

	ctx := context.Background()
	if err := miner.FeedBatch(ctx, sequence(1, 2, 3)); err != nil {
		log.Fatal(err)
	}
	next, err := miner.Predict(ctx, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after file 1, prefetch:", next)
	// Output: after file 1, prefetch: [2 3]
}

// ExampleDial serves a miner on a loopback listener with Serve and talks to
// it through the remote Miner that Dial returns — the same calls a program
// would make against a farmerd daemon.
func ExampleDial() {
	server, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- farmer.Serve(ctx, lis, server, farmer.ServeConfig{}) }()

	miner, err := farmer.Dial(context.Background(), lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	if err := miner.FeedBatch(context.Background(), sequence(1, 2, 3)); err != nil {
		log.Fatal(err)
	}
	next, err := miner.Predict(context.Background(), 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after file 2, prefetch:", next)

	miner.Close()
	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	server.Close()
	// Output: after file 2, prefetch: [3]
}

// ExampleDial_ackWindow streams records without a round trip each: buffer
// them and send the buffer with FeedBatch wherever "fed" must mean "acked"
// (a full buffer, a checkpoint cut, the end of the stream). A nil FeedBatch
// acks every buffered record; after a failed one, resume from Stats().Fed.
func ExampleDial_ackWindow() {
	server, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- farmer.Serve(ctx, lis, server, farmer.ServeConfig{}) }()

	miner, err := farmer.Dial(context.Background(), lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	var buf []farmer.Record
	barrier := func() {
		if err := miner.FeedBatch(context.Background(), buf); err != nil {
			log.Fatal(err) // the buffer is in doubt: resume from Stats().Fed
		}
		buf = buf[:0]
	}
	for _, r := range sequence(1, 2, 3) {
		if buf = append(buf, r); len(buf) == 32 {
			barrier()
		}
	}
	barrier()
	st, err := miner.Stats(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	next, err := miner.Predict(context.Background(), 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("acked:", st.Fed)
	fmt.Println("after file 1, prefetch:", next)

	miner.Close()
	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	server.Close()
	// Output:
	// acked: 36
	// after file 1, prefetch: [2 3]
}

// ExampleDial_failover runs a replicated pair — a primary streaming every
// acked record to a follower — and a multi-address client that survives the
// primary's death: the next write fails over to the follower, which
// promotes itself because its primary link is gone, and serves the same
// mined state (replication is bit-identical, so predictions are too).
func ExampleDial_failover() {
	ctx := context.Background()
	newServed := func(cfg farmer.ServeConfig) (*farmer.LocalMiner, string, func()) {
		m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2))
		if err != nil {
			log.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		sctx, stop := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- farmer.Serve(sctx, lis, m, cfg) }()
		return m, lis.Addr().String(), func() { stop(); <-done; m.Close() }
	}

	_, followerAddr, stopFollower := newServed(farmer.ServeConfig{Follower: true})
	defer stopFollower()
	_, primaryAddr, stopPrimary := newServed(farmer.ServeConfig{ReplicateTo: []string{followerAddr}})

	// The client lists the primary first and the follower as its fallback.
	miner, err := farmer.Dial(ctx, primaryAddr, farmer.WithFailover(followerAddr))
	if err != nil {
		log.Fatal(err)
	}
	defer miner.Close()
	if err := miner.FeedBatch(ctx, sequence(1, 2, 3)); err != nil {
		log.Fatal(err)
	}

	stopPrimary() // the primary dies; every acked record is on the follower

	// Reads fail over transparently. (A Feed/FeedBatch interrupted by the
	// crash itself would return farmer.ErrDisconnected. The next Stats then
	// reads only from a server that takes writes — a follower promotes once
	// its primary's link is closed, so its Fed is final — and the caller
	// resumes from Stats().Fed; see RemoteMiner's doc.)
	st, err := miner.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	next, err := miner.Predict(ctx, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("records surviving the primary:", st.Fed)
	fmt.Println("after file 2, prefetch:", next)
	// Output:
	// records surviving the primary: 36
	// after file 2, prefetch: [3]
}

// ExampleServe_multiTenant serves two isolated tenants from one listener.
// Each tenant gets its own lazily opened miner, bearer tokens gate who may
// bind which tenant, and the workloads never see each other: alpha's cycle
// teaches it nothing about beta's.
func ExampleServe_multiTenant() {
	server, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2)) // every tenant mines as it does
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- farmer.Serve(ctx, lis, server, farmer.ServeConfig{
			Tenants: &farmer.TenantsConfig{}, // memory-only tenants; set Dir to persist them
			AuthTokens: map[string][]string{
				"admin-secret": {"*"},     // every tenant, including the default
				"alpha-secret": {"alpha"}, // exactly one
			},
		})
	}()

	dial := func(tenant, token string) *farmer.RemoteMiner {
		m, err := farmer.Dial(context.Background(), lis.Addr().String(),
			farmer.WithTenant(tenant), farmer.WithToken(token))
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	alpha := dial("alpha", "alpha-secret")
	beta := dial("beta", "admin-secret")
	if err := alpha.FeedBatch(context.Background(), sequence(1, 2, 3)); err != nil {
		log.Fatal(err)
	}
	if err := beta.FeedBatch(context.Background(), sequence(7, 8, 9)); err != nil {
		log.Fatal(err)
	}

	next, err := alpha.Predict(context.Background(), 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alpha after file 1:", next)
	crossTenant, err := alpha.Predict(context.Background(), 7, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alpha after beta's file 7:", crossTenant)
	tenants, err := beta.Tenants(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, ts := range tenants {
		if ts.Name != "" { // skip the default tenant (the server's own miner)
			fmt.Printf("tenant %s fed %d\n", ts.Name, ts.Stats.Fed)
		}
	}

	alpha.Close()
	beta.Close()
	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	server.Close()
	// Output:
	// alpha after file 1: [2]
	// alpha after beta's file 7: []
	// tenant alpha fed 36
	// tenant beta fed 36
}

// ExampleMiner shows why the interface exists: the same function serves
// predictions from an in-process miner and from a remote one.
func ExampleMiner() {
	hottest := func(m farmer.Miner, f farmer.FileID) []farmer.FileID {
		next, err := m.Predict(context.Background(), f, 2)
		if err != nil {
			return nil
		}
		return next
	}

	local, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()
	if err := local.FeedBatch(context.Background(), sequence(4, 5, 6)); err != nil {
		log.Fatal(err)
	}

	// hottest works unchanged against a farmer.Dial client.
	fmt.Println("correlated with 4:", hottest(local, 4))
	// Output: correlated with 4: [5 6]
}

// ExampleServe_metrics attaches a metrics registry to a served miner and
// renders it in Prometheus text format — what a farmerd started with
// -metrics-addr serves from its /metrics endpoint. Every series is sampled
// at scrape time from state the miner already maintains, so the ingest hot
// path pays nothing for the instrumentation.
func ExampleServe_metrics() {
	server, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2),
		farmer.WithPrefetcher(nil, farmer.PrefetchConfig{K: 2}))
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	reg := farmer.NewMetricsRegistry()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- farmer.Serve(ctx, lis, server, farmer.ServeConfig{Obs: reg})
	}()

	client, err := farmer.Dial(context.Background(), lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	if err := client.FeedBatch(context.Background(), sequence(1, 2, 3)); err != nil {
		log.Fatal(err)
	}
	client.Close()

	// A /metrics handler is one line: reg.WritePrometheus(w). Pick two
	// stable series out of the scrape for the example.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "farmer_ingest_records_total ") ||
			strings.HasPrefix(line, "farmer_prefetch_dropped_total ") {
			fmt.Println(line)
		}
	}

	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	server.Close()
	// Output:
	// farmer_ingest_records_total 36
	// farmer_prefetch_dropped_total 0
}
