// Package daemon is farmerd behind its main: the flags, their validation,
// store repair/open/load, the listener, signal-driven graceful drain and
// prefetch-pipeline accounting, importable so tests run the daemon in
// process.
package daemon

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"farmer"
	"farmer/internal/rpc"
)

// ErrUsage marks option mistakes the commands report as exit code 2.
var ErrUsage = errors.New("usage error")

// Options parameterises one serving daemon. Register binds every field but
// Logf to the farmerd flag that describes it; set directly, a zero value
// means the feature is off (Weight/Strength nil: the paper default,
// Drain 0: Serve's default).
type Options struct {
	Addr        string
	MetricsAddr string
	StorePath   string
	Load        bool
	Repair      bool
	Shards      int
	Ckpt        time.Duration
	PrefetchK   int
	Weight      *float64
	Strength    *float64
	Drain       time.Duration
	// ReplicateTo makes the daemon the replication primary of the listed
	// followers; Follow starts it as a promotable follower instead, and the
	// two are mutually exclusive. A follower started with Load resumes from
	// its own checkpoint when that holds the primary's position (both
	// restarted after a clean drain); the primary ships a full cut
	// otherwise.
	ReplicateTo []string
	Follow      bool
	// LeaseTTL puts a clock on the write lease: the leader renews it over
	// the replication stream, and a follower whose lease view expires holds
	// an election among LeasePeers instead of waiting for a manual promote.
	// Zero leaves the lease untimed (availability wins: a follower's view
	// of the leader's term ends with the replication link).
	LeaseTTL   time.Duration
	LeasePeers []string

	// TLSCert/TLSKey name a PEM certificate/key pair; both or neither.
	TLSCert string
	TLSKey  string
	// Auth lists static bearer-token grants, each "token=tenant,tenant"
	// ("*" grants every tenant). A non-empty list makes authentication
	// mandatory: connections must open with a hello carrying a known token
	// before any frame dispatches. ReplicaToken is what this daemon presents
	// to ReplicateTo followers that run with Auth (granted "*" there).
	Auth         []string
	ReplicaToken string

	// TenantsDir turns the daemon multi-tenant: frames carrying a tenant
	// id lazily open one miner per tenant, persisted under
	// TenantsDir/<tenant>/store.wal. MaxTenants, TenantIdle (checkpointed,
	// closed, transparently reopened on the next frame) and TenantMaxMemory
	// only apply with it set.
	TenantsDir      string
	MaxTenants      int
	TenantIdle      time.Duration
	TenantMaxMemory int64

	Logf func(format string, args ...any)

	// The two comma-separated list flags as typed; Run splits them onto
	// ReplicateTo and LeasePeers.
	replicateTo, leasePeers string
}

// Register declares farmerd's flags on fs, each bound to its field of o:
// the one place a flag's name, default and help are written.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Addr, "addr", "127.0.0.1:4727", "TCP listen address")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "HTTP listen address for the /metrics endpoint (empty = no endpoint)")
	fs.StringVar(&o.StorePath, "store", "", "write-ahead log path for persistent mined state (empty = volatile)")
	fs.BoolVar(&o.Load, "load", false, "restore persisted state from -store at startup")
	fs.BoolVar(&o.Repair, "repair", false, "truncate a corrupt -store log at its last intact record before opening")
	fs.IntVar(&o.Shards, "shards", 0, "miner shards (0/1 = one; mined state is bit-identical at every count)")
	fs.DurationVar(&o.Ckpt, "checkpoint", 0, "periodic checkpoint interval (0 = only on shutdown; needs -store)")
	fs.IntVar(&o.PrefetchK, "prefetch-k", 0, "attach the async prefetch pipeline with this prefetch degree (0 = off)")
	o.Weight = fs.Float64("weight", farmer.DefaultConfig().Weight, "correlation weight p")
	o.Strength = fs.Float64("strength", farmer.DefaultConfig().MaxStrength, "max_strength validity threshold")
	fs.DurationVar(&o.Drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&o.replicateTo, "replicate-to", "", "comma-separated follower addresses to replicate to (serve as primary)")
	fs.BoolVar(&o.Follow, "follow", false, "start without the write lease, as a replication follower: reads only until promoted or elected")
	fs.DurationVar(&o.LeaseTTL, "lease-ttl", 0, "write lease TTL: renewal needs a follower quorum, expiry triggers follower self-election (0 = untimed: a follower's view of the lease ends with the primary's link)")
	fs.StringVar(&o.leasePeers, "lease-peers", "", "comma-separated peer farmerd addresses that vote in lease elections (needs -lease-ttl)")
	fs.StringVar(&o.ReplicaToken, "replica-token", "", "bearer token presented to -replicate-to followers running with -auth")
	fs.StringVar(&o.TLSCert, "tls-cert", "", "PEM certificate for serving over TLS (needs -tls-key)")
	fs.StringVar(&o.TLSKey, "tls-key", "", "PEM private key for serving over TLS (needs -tls-cert)")
	fs.Var((*multiFlag)(&o.Auth), "auth", "bearer-token grant token=tenant,tenant or token=* (repeatable; any -auth makes auth mandatory)")
	fs.StringVar(&o.TenantsDir, "tenants-dir", "", "serve multiple tenants, each persisted under DIR/<tenant>/ (empty = single-tenant)")
	fs.IntVar(&o.MaxTenants, "max-tenants", 0, "cap on concurrently live named tenants (0 = unlimited; needs -tenants-dir)")
	fs.DurationVar(&o.TenantIdle, "tenant-idle", 0, "evict a tenant idle this long, checkpointing it first (0 = never; needs -tenants-dir)")
	fs.Int64Var(&o.TenantMaxMemory, "tenant-max-memory", 0, "per-tenant model footprint budget in bytes (0 = unlimited; needs -tenants-dir)")
}

// multiFlag collects a repeatable string flag (-auth is given once per
// token grant, since tenant lists already use commas).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// splitAddrs parses a comma-separated address list, dropping empty segments
// so a trailing comma is not a usage error.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// ParseAuthSpec splits one -auth grant "token=tenant,tenant" (or
// "token=*") into its token and tenant list, validating tenant ids.
func ParseAuthSpec(spec string) (token string, tenants []string, err error) {
	token, list, ok := strings.Cut(spec, "=")
	if !ok || token == "" {
		return "", nil, fmt.Errorf("auth grant %q is not token=tenant[,tenant...]", spec)
	}
	for _, t := range strings.Split(list, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if t != "*" {
			if err := rpc.ValidTenant(t); err != nil {
				return "", nil, fmt.Errorf("auth grant %q: %w", spec, err)
			}
		}
		tenants = append(tenants, t)
	}
	if len(tenants) == 0 {
		return "", nil, fmt.Errorf("auth grant %q grants no tenants (use token=* for all)", spec)
	}
	return token, tenants, nil
}

// Run serves a miner built from o until SIGINT/SIGTERM (or ctx cancels),
// then drains gracefully. Errors wrapping ErrUsage are option mistakes;
// everything else is a runtime failure.
func Run(ctx context.Context, o Options) error {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	o.ReplicateTo = append(o.ReplicateTo, splitAddrs(o.replicateTo)...)
	o.LeasePeers = append(o.LeasePeers, splitAddrs(o.leasePeers)...)
	if o.StorePath == "" {
		switch {
		case o.Load:
			return fmt.Errorf("%w: -load requires -store", ErrUsage)
		case o.Repair:
			return fmt.Errorf("%w: -repair requires -store", ErrUsage)
		case o.Ckpt > 0:
			return fmt.Errorf("%w: -checkpoint requires -store", ErrUsage)
		}
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w: -shards %d is negative", ErrUsage, o.Shards)
	}
	if o.Follow && len(o.ReplicateTo) > 0 {
		return fmt.Errorf("%w: -follow and -replicate-to are mutually exclusive (chained replication is not supported)", ErrUsage)
	}
	for _, addr := range o.ReplicateTo {
		if addr == "" {
			return fmt.Errorf("%w: -replicate-to contains an empty address", ErrUsage)
		}
	}
	if len(o.LeasePeers) > 0 && o.LeaseTTL <= 0 {
		return fmt.Errorf("%w: -lease-peers requires -lease-ttl", ErrUsage)
	}
	for _, addr := range o.LeasePeers {
		if addr == "" {
			return fmt.Errorf("%w: -lease-peers contains an empty address", ErrUsage)
		}
	}
	if (o.TLSCert == "") != (o.TLSKey == "") {
		return fmt.Errorf("%w: -tls-cert and -tls-key must be given together", ErrUsage)
	}
	if o.TenantsDir == "" {
		switch {
		case o.MaxTenants != 0:
			return fmt.Errorf("%w: -max-tenants requires -tenants-dir", ErrUsage)
		case o.TenantIdle != 0:
			return fmt.Errorf("%w: -tenant-idle requires -tenants-dir", ErrUsage)
		case o.TenantMaxMemory != 0:
			return fmt.Errorf("%w: -tenant-max-memory requires -tenants-dir", ErrUsage)
		}
	}
	authTokens := make(map[string][]string, len(o.Auth))
	for _, spec := range o.Auth {
		token, tenants, err := ParseAuthSpec(spec)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUsage, err)
		}
		authTokens[token] = append(authTokens[token], tenants...)
	}
	if len(authTokens) == 0 {
		authTokens = nil
	}
	var tlsCfg *tls.Config
	if o.TLSCert != "" {
		cert, err := tls.LoadX509KeyPair(o.TLSCert, o.TLSKey)
		if err != nil {
			return fmt.Errorf("loading TLS key pair: %w", err)
		}
		tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	cfg := farmer.DefaultConfig()
	if o.Weight != nil {
		cfg.Weight = *o.Weight
	}
	if o.Strength != nil {
		cfg.MaxStrength = *o.Strength
	}

	if o.Repair {
		kept, dropped, err := farmer.RepairStore(o.StorePath)
		if err != nil {
			return fmt.Errorf("repairing store: %w", err)
		}
		if dropped > 0 {
			logf("repaired %s: kept %d records, dropped %d corrupt tail bytes", o.StorePath, kept, dropped)
		}
	}

	opts := []farmer.Option{farmer.WithShards(o.Shards)}
	if o.StorePath != "" {
		opts = append(opts, farmer.WithStore(o.StorePath))
		if o.Load {
			opts = append(opts, farmer.WithLoad())
		}
	}
	if o.PrefetchK > 0 {
		opts = append(opts, farmer.WithPrefetcher(nil, farmer.PrefetchConfig{K: o.PrefetchK}))
	}
	miner, err := farmer.Open(cfg, opts...)
	if err != nil {
		return err
	}
	defer miner.Close()

	lis, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	// The metrics endpoint is plain HTTP on its own listener — operators
	// point Prometheus (or curl) at it without speaking the wire protocol,
	// and it stays readable while the protocol port is TLS/auth-gated.
	var obsReg *farmer.MetricsRegistry
	if o.MetricsAddr != "" {
		obsReg = farmer.NewMetricsRegistry()
		mlis, err := net.Listen("tcp", o.MetricsAddr)
		if err != nil {
			lis.Close()
			return fmt.Errorf("metrics listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = obsReg.WritePrometheus(w)
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = obsReg.WriteJSON(w)
		})
		msrv := &http.Server{Handler: mux}
		go func() { _ = msrv.Serve(mlis) }()
		defer msrv.Close()
		logf("metrics endpoint on http://%s/metrics", mlis.Addr())
	}
	role := "standalone"
	switch {
	case o.Follow:
		role = "follower"
	case len(o.ReplicateTo) > 0:
		role = fmt.Sprintf("primary->%v", o.ReplicateTo)
	}
	logf("serving on %s (shards=%d store=%q role=%s tenants=%q tls=%t auth=%d)",
		lis.Addr(), o.Shards, o.StorePath, role, o.TenantsDir, tlsCfg != nil, len(authTokens))

	var tenantsCfg *farmer.TenantsConfig
	if o.TenantsDir != "" {
		tenantsCfg = &farmer.TenantsConfig{
			Dir:        o.TenantsDir,
			Budget:     farmer.TenantBudget{MaxMemoryBytes: o.TenantMaxMemory},
			MaxTenants: o.MaxTenants,
			IdleAfter:  o.TenantIdle,
		}
	}

	sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = farmer.Serve(sctx, lis, miner, farmer.ServeConfig{
		Checkpoint:   o.Ckpt,
		DrainTimeout: o.Drain,
		ReplicateTo:  o.ReplicateTo,
		Follower:     o.Follow,
		LeaseTTL:     o.LeaseTTL,
		LeasePeers:   o.LeasePeers,
		ReplicaToken: o.ReplicaToken,
		TLS:          tlsCfg,
		AuthTokens:   authTokens,
		Tenants:      tenantsCfg,
		Obs:          obsReg,
		Logf:         logf,
	})
	if pf := miner.Prefetcher(); pf != nil {
		pf.Stop()
		st := pf.Stats()
		logf("prefetch pipeline: %d events, %d predicted, %d dropped", st.Events, st.Predicted, st.Dropped)
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logf("drained cleanly")
	return nil
}
