// Command farmerd serves a FARMER miner on the wire: a daemon speaking the
// internal/rpc protocol that farmer.Dial clients, rpc.NetOwner dispatchers
// and `farmerctl ping` talk to. It is the process boundary the paper's
// in-MDS prototype never had — the miner runs here, the metadata service
// (or a replay harness, or another farmerd's dispatcher) runs elsewhere.
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
	"strings"
	"time"

	"farmer"
	"farmer/internal/daemon"
)

func main() {
	os.Exit(run())
}

// splitAddrs parses the -replicate-to list, dropping empty segments so a
// trailing comma is not a usage error.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// multiFlag collects a repeatable string flag (-auth can be given once per
// token grant, since tenant lists already use commas).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func run() int {
	fs := flag.NewFlagSet("farmerd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:4727", "TCP listen address")
	metricsAddr := fs.String("metrics-addr", "", "HTTP listen address for the /metrics endpoint (empty = no endpoint)")
	storePath := fs.String("store", "", "write-ahead log path for persistent mined state (empty = volatile)")
	load := fs.Bool("load", false, "restore persisted state from -store at startup")
	repair := fs.Bool("repair", false, "truncate a corrupt -store log at its last intact record before opening")
	shards := fs.Int("shards", 0, "miner shards (0/1 = one; mined state is bit-identical at every count)")
	partName := fs.String("partition", "stripe", "shard partitioner: stripe, hash or group")
	checkpoint := fs.Duration("checkpoint", 0, "periodic checkpoint interval (0 = only on shutdown; needs -store)")
	prefetchK := fs.Int("prefetch-k", 0, "attach the async prefetch pipeline with this prefetch degree (0 = off)")
	weight := fs.Float64("weight", farmer.DefaultConfig().Weight, "correlation weight p")
	strength := fs.Float64("strength", farmer.DefaultConfig().MaxStrength, "max_strength validity threshold")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	replicateTo := fs.String("replicate-to", "", "comma-separated follower addresses to replicate to (serve as primary)")
	follow := fs.Bool("follow", false, "start without the write lease, as a replication follower: reads only until promoted or elected")
	leaseTTL := fs.Duration("lease-ttl", 0, "write lease TTL: renewal needs a follower quorum, expiry triggers follower self-election (0 = untimed: a follower's view of the lease ends with the primary's link)")
	leasePeers := fs.String("lease-peers", "", "comma-separated peer farmerd addresses that vote in lease elections (needs -lease-ttl)")
	replicaToken := fs.String("replica-token", "", "bearer token presented to -replicate-to followers running with -auth")
	tlsCert := fs.String("tls-cert", "", "PEM certificate for serving over TLS (needs -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for serving over TLS (needs -tls-cert)")
	var auth multiFlag
	fs.Var(&auth, "auth", "bearer-token grant token=tenant,tenant or token=* (repeatable; any -auth makes auth mandatory)")
	tenantsDir := fs.String("tenants-dir", "", "serve multiple tenants, each persisted under DIR/<tenant>/ (empty = single-tenant)")
	maxTenants := fs.Int("max-tenants", 0, "cap on concurrently live named tenants (0 = unlimited; needs -tenants-dir)")
	tenantIdle := fs.Duration("tenant-idle", 0, "evict a tenant idle this long, checkpointing it first (0 = never; needs -tenants-dir)")
	tenantMaxMemory := fs.Int64("tenant-max-memory", 0, "per-tenant model footprint budget in bytes (0 = unlimited; needs -tenants-dir)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "farmerd serves a FARMER miner over the wire protocol.\n\nusage: farmerd [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "farmerd: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	logger := log.New(os.Stderr, "farmerd: ", log.LstdFlags)
	err := daemon.Run(context.Background(), daemon.Options{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		StorePath:   *storePath,
		Load:        *load,
		Repair:      *repair,
		Shards:      *shards,
		Partition:   *partName,
		Ckpt:        *checkpoint,
		PrefetchK:   *prefetchK,
		Weight:      weight,
		Strength:    strength,
		Drain:       *drain,
		ReplicateTo: splitAddrs(*replicateTo),
		Follow:      *follow,
		LeaseTTL:    *leaseTTL,
		LeasePeers:  splitAddrs(*leasePeers),

		TLSCert:      *tlsCert,
		TLSKey:       *tlsKey,
		Auth:         auth,
		ReplicaToken: *replicaToken,

		TenantsDir:      *tenantsDir,
		MaxTenants:      *maxTenants,
		TenantIdle:      *tenantIdle,
		TenantMaxMemory: *tenantMaxMemory,

		Logf: logger.Printf,
	})
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
