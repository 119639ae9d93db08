// Command farmerd serves a FARMER miner on the wire: a daemon speaking the
// internal/rpc protocol that farmer.Dial clients, other farmerds'
// replicators and `farmerctl` talk to. It is the process boundary the
// paper's in-MDS prototype never had — the miner runs here, the metadata
// service (or a replay harness) runs elsewhere.
//
// Usage:
//
//	farmerd [-addr host:port] [-metrics-addr host:port]
//	        [-store wal] [-load] [-repair]
//	        [-shards N] [-partition stripe|hash|group]
//	        [-checkpoint D] [-drain D] [-prefetch-k K]
//	        [-weight P] [-strength S]
//	        [-replicate-to addr,addr...] [-follow]
//	        [-replica-token T] [-lease-ttl D] [-lease-peers addr,addr...]
//	        [-tls-cert cert.pem -tls-key key.pem]
//	        [-auth token=tenant,tenant]... [-tenants-dir DIR]
//	        [-max-tenants N] [-tenant-idle D] [-tenant-max-memory B]
//
// With -store, mined state is checkpointed every -checkpoint interval and
// once more on shutdown; -load restores the previous state at start, and
// -repair truncates a corrupt write-ahead log at its last intact record
// first (otherwise a corrupt log refuses to open). With -prefetch-k, the
// async prefetch pipeline is attached and its accounting is printed on
// exit. SIGINT/SIGTERM drain gracefully: in-flight requests finish,
// responses flush, the final checkpoint is written, all within -drain.
// -shards stripes the miner for parallel batch ingest; mined state is
// bit-identical at every count, and reads take the owning shard's lock
// (there is no separate read path to configure).
//
// With -replicate-to, this farmerd is a replication PRIMARY: each listed
// address must be a farmerd started with -follow, which is bootstrapped
// with a catch-up checkpoint at startup and then receives every acked
// record before the client's ack — so no acked record dies with the
// primary. A follower restarted with -load resumes from its own
// checkpoint, and the primary catches it up by replaying just the records
// it missed when its position is within the last 65536 records, shipping a
// full cut otherwise.
//
// Writability is one epoch-versioned LEASE. A farmerd leads epoch 1 from
// start; with -follow it starts without the lease: it serves reads, mirrors
// its primary's term, and refuses writes until it takes the next epoch.
// Without -lease-ttl the lease is untimed — a follower's view of it ends
// with the primary's link, after which a failing-over multi-address
// farmer.Dial client (or farmerctl) may promote it. With -lease-ttl the
// primary renews over the replication stream (a renewal needs acks from a
// majority of configured followers) and a follower whose lease view
// expires elects itself once a majority of -lease-peers vote for it. A
// deposed or lapsed daemon refuses writes with a typed stale-epoch error
// that multi-address clients use to find the live holder, and `farmerctl
// rebalance` moves lease and mined state to another daemon without losing
// an acked record. See DESIGN.md "Leases, epochs & live handoff".
//
// With -tenants-dir, the daemon is MULTI-TENANT: frames carrying a tenant
// id lazily open one miner per tenant, persisted under DIR/<tenant>/, with
// per-tenant budgets (-max-tenants, -tenant-idle eviction,
// -tenant-max-memory). -tls-cert and -tls-key serve the protocol over TLS;
// each repeatable -auth grant maps a static bearer token to the tenants it
// may address ("*" = all), and any -auth makes authentication mandatory.
// -replica-token is the token this primary presents when its followers run
// with -auth.
//
// With -metrics-addr, the daemon additionally serves live metrics over
// plain HTTP on that address: GET /metrics is Prometheus text exposition
// (ingest rate, per-shard mailbox depth and drops, per-follower replication
// lag, checkpoint age, prediction accuracy), GET /metrics.json the same
// samples as JSON. The same numbers travel the wire protocol as the MsgObs
// frame behind `farmerctl top`.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"farmer/internal/daemon"
)

func main() {
	os.Exit(run())
}

// newFlags declares farmerd's command line: daemon.Options' flags under
// the daemon's usage text.
func newFlags() (*flag.FlagSet, *daemon.Options) {
	fs := flag.NewFlagSet("farmerd", flag.ExitOnError)
	o := new(daemon.Options)
	o.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "farmerd serves a FARMER miner over the wire protocol.\n\nusage: farmerd [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	return fs, o
}

func run() int {
	fs, o := newFlags()
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "farmerd: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	logger := log.New(os.Stderr, "farmerd: ", log.LstdFlags)
	o.Logf = logger.Printf
	err := daemon.Run(context.Background(), *o)
	if errors.Is(err, daemon.ErrUsage) {
		fmt.Fprintf(os.Stderr, "farmerd: %v\n", err)
		fs.Usage()
		return 2
	}
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}
	return 0
}
