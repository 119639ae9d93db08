// Command farmerctl drives the FARMER reproduction from the command line:
// it regenerates the paper's figures and tables from the synthetic
// workloads and the storage-system simulator, and it talks to a live
// farmerd over the wire protocol.
//
// Usage:
//
//	farmerctl [flags] <experiment>...   regenerate evaluation artifacts
//	farmerctl ping  [flags]             round-trip a live farmerd and report latency
//	farmerctl tenants [flags]           list a multi-tenant farmerd's live tenants
//	farmerctl top   [flags]             live top-k correlated groups and ingest rates
//	farmerctl rebalance [flags]         move a daemon's lease and state to another farmerd
//
// Experiments: fig1 table2 fig3 fig5 fig6 fig7 fig8 table3 table4 ablation
// quality asynclat cluster all. fig3 accepts -trace (default runs all four
// traces).
//
// Every subcommand supports -h, reports errors on stderr prefixed with its
// name, and exits 0 on success, 1 on runtime failure, 2 on usage errors.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"farmer"
	"farmer/internal/exp"
)

func main() {
	args := os.Args[1:]
	var code int
	switch {
	case len(args) > 0 && args[0] == "ping":
		code = runPing(args[1:])
	case len(args) > 0 && args[0] == "tenants":
		code = runTenants(args[1:])
	case len(args) > 0 && args[0] == "top":
		code = runTop(args[1:])
	case len(args) > 0 && args[0] == "rebalance":
		code = runRebalance(args[1:])
	default:
		code = runExperiments(args)
	}
	os.Exit(code)
}

// fail reports a runtime error in the subcommand's name and returns exit
// code 1; usage mistakes go through usageErr (code 2) instead.
func fail(cmd string, err error) int {
	fmt.Fprintf(os.Stderr, "farmerctl %s: %v\n", cmd, err)
	return 1
}

func usageErr(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "farmerctl %s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return 2
}

// newFlagSet builds a subcommand flag set with uniform -h/usage text.
func newFlagSet(name, oneLiner, argsHint string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "%s\n\nusage: farmerctl %s %s\n\nflags:\n", oneLiner, name, argsHint)
		fs.PrintDefaults()
	}
	return fs
}

// dialFlags registers the client-side connection flags shared by ping and
// tenants; the returned builder turns them into farmer.Dial options.
func dialFlags(fs *flag.FlagSet) func() []farmer.DialOption {
	tenant := fs.String("tenant", "", "tenant id to address (empty = the default tenant)")
	token := fs.String("token", "", "bearer token for a farmerd running with -auth")
	insecure := fs.Bool("tls-insecure", false, "dial over TLS without verifying the server certificate")
	return func() []farmer.DialOption {
		var opts []farmer.DialOption
		if *tenant != "" {
			opts = append(opts, farmer.WithTenant(*tenant))
		}
		if *token != "" {
			opts = append(opts, farmer.WithToken(*token))
		}
		if *insecure {
			opts = append(opts, farmer.WithDialTLS(&tls.Config{InsecureSkipVerify: true}))
		}
		return opts
	}
}

// ------------------------------------------------------------------- ping

func runPing(args []string) int {
	fs := newFlagSet("ping", "round-trip a live farmerd and report wire latency.", "[flags]")
	addr := fs.String("addr", "127.0.0.1:4727", "farmerd TCP address")
	count := fs.Int("n", 5, "round trips to time")
	timeout := fs.Duration("timeout", 5*time.Second, "per-round-trip deadline")
	dial := dialFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return usageErr(fs, "unexpected arguments %q", fs.Args())
	}
	if *count < 1 {
		return usageErr(fs, "-n %d must be >= 1", *count)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	m, err := farmer.Dial(ctx, *addr, dial()...)
	if err != nil {
		return fail("ping", err)
	}
	defer m.Close()

	var min, max, sum time.Duration
	for i := 0; i < *count; i++ {
		pctx, pcancel := context.WithTimeout(context.Background(), *timeout)
		rtt, err := m.Ping(pctx)
		pcancel()
		if err != nil {
			return fail("ping", fmt.Errorf("round trip %d: %w", i+1, err))
		}
		if i == 0 || rtt < min {
			min = rtt
		}
		if rtt > max {
			max = rtt
		}
		sum += rtt
	}
	sctx, scancel := context.WithTimeout(context.Background(), *timeout)
	st, err := m.Stats(sctx)
	scancel()
	if err != nil {
		return fail("ping", err)
	}
	fmt.Printf("%s: %d round trips, min %v avg %v max %v; miner fed=%d files=%d lists=%d\n",
		*addr, *count, min, sum/time.Duration(*count), max, st.Fed, st.TrackedFiles, st.Lists)
	return 0
}

// ---------------------------------------------------------------- tenants

func runTenants(args []string) int {
	fs := newFlagSet("tenants", "list a multi-tenant farmerd's live tenants and their stats.", "[flags]")
	addr := fs.String("addr", "127.0.0.1:4727", "farmerd TCP address")
	timeout := fs.Duration("timeout", 5*time.Second, "request deadline")
	dial := dialFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return usageErr(fs, "unexpected arguments %q", fs.Args())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	m, err := farmer.Dial(ctx, *addr, dial()...)
	if err != nil {
		return fail("tenants", err)
	}
	defer m.Close()

	ts, err := m.Tenants(ctx)
	if err != nil {
		return fail("tenants", err)
	}
	// The observability frame supplies the columns the stats frame cannot:
	// wire-level feed accounting and checkpoint health. An older farmerd
	// that lacks MsgObs still lists — those columns just print "-".
	obsRows := map[string]farmer.TenantObs{}
	if rows, err := m.Obs(ctx, 0); err == nil {
		for _, r := range rows {
			obsRows[r.Name] = r
		}
	}
	fmt.Fprintf(topOut, "%-24s %12s %10s %10s %12s %12s %10s\n",
		"TENANT", "FED", "FILES", "LISTS", "MEMORY", "FEEDS", "CKPT-AGE")
	for _, t := range ts {
		name := t.Name
		if name == "" {
			name = "(default)"
		}
		fed := uint64(t.Stats.Fed)
		mem := uint64(t.Stats.MemoryBytes)
		feeds, ckptAge := "-", "-"
		if r, ok := obsRows[t.Name]; ok {
			fed, mem = r.Fed, r.MemoryBytes
			feeds = fmt.Sprintf("%d", r.FeedRecords)
			if r.CkptAgeMS != farmer.NeverCheckpointed {
				ckptAge = (time.Duration(r.CkptAgeMS) * time.Millisecond).Truncate(time.Second).String()
			}
		}
		fmt.Fprintf(topOut, "%-24s %12d %10d %10d %12d %12s %10s\n",
			name, fed, t.Stats.TrackedFiles, t.Stats.Lists, mem, feeds, ckptAge)
	}
	return 0
}

// -------------------------------------------------------------- rebalance

func runRebalance(args []string) int {
	fs := newFlagSet("rebalance", "move a daemon's write lease and mined state to another farmerd, live.", "[flags]")
	addr := fs.String("addr", "127.0.0.1:4727", "source farmerd TCP address (the current lease holder)")
	to := fs.String("to", "", "target farmerd TCP address, as reachable from the source (required)")
	timeout := fs.Duration("timeout", 2*time.Minute, "handoff deadline (shipping a large model takes a while)")
	dial := dialFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return usageErr(fs, "unexpected arguments %q", fs.Args())
	}
	if *to == "" {
		return usageErr(fs, "-to is required")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	m, err := farmer.Dial(ctx, *addr, dial()...)
	if err != nil {
		return fail("rebalance", err)
	}
	defer m.Close()

	start := time.Now()
	if err := m.Handoff(ctx, *to); err != nil {
		// The handoff frame is sent exactly once; if the connection died
		// mid-call the transfer may or may not have landed. Point the
		// operator at the authoritative check instead of guessing.
		if errors.Is(err, farmer.ErrDisconnected) {
			return fail("rebalance", fmt.Errorf("%w — the handoff is in doubt: check `farmerctl top -addr %s` for the lease holder", err, *to))
		}
		return fail("rebalance", err)
	}
	fmt.Fprintf(topOut, "%s: handed off to %s in %v\n", *addr, *to, time.Since(start).Truncate(time.Millisecond))

	// Confirm from the target's mouth when it is reachable from here (the
	// -to address is resolved by the source, which may sit on another
	// network). Failure to confirm is not failure to hand off.
	tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer tcancel()
	if tm, err := farmer.Dial(tctx, *to, dial()...); err == nil {
		defer tm.Close()
		if info, err := tm.LeaseStatus(tctx); err == nil && info.Self {
			fmt.Fprintf(topOut, "%s: leading at epoch %d (ttl %v)\n",
				*to, info.Epoch, time.Duration(info.TTLMS)*time.Millisecond)
		}
	}
	return 0
}

// -------------------------------------------------------------------- top

// topOut is where top and tenants write their tables — a seam so tests can
// capture the rendered output.
var topOut io.Writer = os.Stdout

func runTop(args []string) int {
	fs := newFlagSet("top", "live top-k correlated groups and ingest rates from a farmerd.", "[flags]")
	addr := fs.String("addr", "127.0.0.1:4727", "farmerd TCP address")
	k := fs.Int("k", 10, "correlated groups to show per tenant")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iters := fs.Int("n", 0, "refreshes before exiting (0 = until interrupted)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline")
	dial := dialFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return usageErr(fs, "unexpected arguments %q", fs.Args())
	}
	if *k < 1 {
		return usageErr(fs, "-k %d must be >= 1", *k)
	}
	if *iters < 0 {
		return usageErr(fs, "-n %d is negative", *iters)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *timeout)
	m, err := farmer.Dial(dctx, *addr, dial()...)
	cancel()
	if err != nil {
		return fail("top", err)
	}
	defer m.Close()

	var prev map[string]farmer.TenantObs
	var prevAt time.Time
	for i := 0; *iters == 0 || i < *iters; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		octx, ocancel := context.WithTimeout(context.Background(), *timeout)
		rows, err := m.Obs(octx, *k)
		ocancel()
		if err != nil {
			return fail("top", err)
		}
		now := time.Now()
		fmt.Fprint(topOut, renderTop(*addr, rows, prev, now.Sub(prevAt)))
		// Per-message wire latency rides its own frame; an older farmerd
		// that lacks it still renders the rest of the view.
		wctx, wcancel := context.WithTimeout(context.Background(), *timeout)
		ws, werr := m.WireStats(wctx)
		wcancel()
		if werr == nil {
			fmt.Fprint(topOut, renderWire(ws))
		}
		prev = make(map[string]farmer.TenantObs, len(rows))
		for _, r := range rows {
			prev[r.Name] = r
		}
		prevAt = now
	}
	return 0
}

// renderTop formats one refresh of the top view: a per-tenant status table
// (ingest position and rate, footprint, prefetch queue (TAP) and checkpoint
// health, replication lag, prediction accuracy) followed by every tenant's top-k
// correlated groups by strength. prev is the previous sample (nil on the
// first refresh) and elapsed the time since it — together they turn the
// monotone counters into rates.
func renderTop(addr string, rows []farmer.TenantObs, prev map[string]farmer.TenantObs, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "farmerd %s — %s — %d tenant(s)\n", addr, time.Now().Format("15:04:05"), len(rows))
	fmt.Fprintf(&b, "%-16s %12s %10s %12s %8s %10s %8s %8s %8s\n",
		"TENANT", "FED", "RATE/S", "MEMORY", "TAP", "CKPT-AGE", "LAG", "ACC", "EPOCH")
	for _, r := range rows {
		name := r.Name
		if name == "" {
			name = "(default)"
		}
		rate := "-"
		if p, ok := prev[r.Name]; ok && elapsed > 0 && r.Fed >= p.Fed {
			rate = fmt.Sprintf("%.0f", float64(r.Fed-p.Fed)/elapsed.Seconds())
		}
		tap := fmt.Sprintf("%d", r.TapDepth)
		if r.TapDropped > 0 {
			tap += fmt.Sprintf("!%d", r.TapDropped)
		}
		ckptAge := "never"
		if r.CkptAgeMS != farmer.NeverCheckpointed {
			ckptAge = (time.Duration(r.CkptAgeMS) * time.Millisecond).Truncate(time.Second).String()
		}
		lag := "-"
		if r.Followers > 0 {
			lag = fmt.Sprintf("%d", r.ReplLagMax)
		}
		acc := "-"
		if r.PredPredicted > 0 {
			acc = fmt.Sprintf("%.1f%%", 100*float64(r.PredHits)/float64(r.PredPredicted))
		}
		epoch := "-"
		if r.LeaseEpoch > 0 {
			epoch = fmt.Sprintf("%d", r.LeaseEpoch)
		}
		fmt.Fprintf(&b, "%-16s %12d %10s %12d %8s %10s %8s %8s %8s\n",
			name, r.Fed, rate, r.MemoryBytes, tap, ckptAge, lag, acc, epoch)
	}
	b.WriteString(renderGroups(rows))
	return b.String()
}

// renderWire formats the daemon's per-message wire-latency accounting (the
// same numbers the farmer_rpc_latency_ns metrics histogram): request count
// and mean handler latency per message type since the daemon started.
func renderWire(stats []farmer.WireStat) string {
	var b strings.Builder
	wrote := false
	for _, s := range stats {
		if s.Count == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(&b, "wire latency since start\n%-12s %12s %12s\n", "MSG", "COUNT", "AVG")
			wrote = true
		}
		fmt.Fprintf(&b, "%-12s %12d %12s\n", s.Type, s.Count, time.Duration(s.SumNS/s.Count))
	}
	return b.String()
}

// renderGroups formats every tenant's correlated groups, strongest first —
// the half of the top view the correctness test pins against a local
// model's TopGroups ranking.
func renderGroups(rows []farmer.TenantObs) string {
	var b strings.Builder
	for _, r := range rows {
		if len(r.Groups) == 0 {
			continue
		}
		name := r.Name
		if name == "" {
			name = "(default)"
		}
		fmt.Fprintf(&b, "top %d groups by strength — tenant %s\n", len(r.Groups), name)
		fmt.Fprintf(&b, "%4s %10s %10s %6s  %s\n", "#", "SEED", "STRENGTH", "SIZE", "FILES")
		for i, g := range r.Groups {
			files := make([]string, 0, min(len(g.Files), 8))
			for _, f := range g.Files[:min(len(g.Files), 8)] {
				files = append(files, fmt.Sprintf("%d", f))
			}
			suffix := ""
			if len(g.Files) > 8 {
				suffix = ",…"
			}
			fmt.Fprintf(&b, "%4d %10d %10.4f %6d  %s%s\n",
				i+1, g.Seed, g.Strength, len(g.Files), strings.Join(files, ","), suffix)
		}
	}
	return b.String()
}

// ------------------------------------------------------------ experiments

func runExperiments(args []string) int {
	fs := newFlagSet("", "farmerctl regenerates the FARMER paper's evaluation artifacts.", "[flags] <experiment>...")
	records := fs.Int("records", 30000, "records per generated trace")
	parallelism := fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "FARMER miner shards per MDS (0 = match MDS workers)")
	servers := fs.Int("servers", 0, "metadata servers in the cluster experiment (0 = default 4)")
	asyncPrefetch := fs.Bool("async-prefetch", false, "run every simulated MDS with mining/prediction off the demand path")
	mineTime := fs.Duration("minetime", 0, "modeled per-record mining CPU cost inside each MDS (asynclat defaults to 1ms)")
	traceName := fs.String("trace", "", "trace for fig3/ablation (LLNL, INS, RES, HP; empty = all/HP)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `farmerctl regenerates the FARMER paper's evaluation artifacts
and talks to a live farmerd.

usage: farmerctl [flags] <experiment>...
       farmerctl ping [flags]       (see farmerctl ping -h)
       farmerctl tenants [flags]    (see farmerctl tenants -h)
       farmerctl top [flags]        (see farmerctl top -h)
       farmerctl rebalance [flags]  (see farmerctl rebalance -h)

experiments:
  fig1     inter-file access probability per attribute (paper Fig. 1)
  table2   DPA vs IPA worked example (paper Table 2)
  fig3     hit ratio vs max_strength for p in {0,0.3,0.7,1} (paper Fig. 3)
  fig5     hit ratio per attribute combination (paper Fig. 5)
  fig6     response time vs max_strength on HP (paper Fig. 6)
  fig7     hit ratio: FARMER vs Nexus vs LRU (paper Fig. 7)
  fig8     response time: FARMER vs Nexus vs LRU (paper Fig. 8)
  table3   prefetching accuracy on HP (paper Table 3)
  table4   space overhead per trace (paper Table 4)
  ablation filtered vs unfiltered footprint (paper §3.3)
  quality  mining precision/recall/F1 vs ground truth (core claim)
  asynclat sync vs async prefetch pipeline demand latency (mining-heavy)
  cluster  multi-MDS cluster: global vs per-partition mining (-servers)
  all      everything above

flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		return usageErr(fs, "no experiment given")
	}
	if *shards < 0 {
		return usageErr(fs, "-shards %d is negative", *shards)
	}
	if *mineTime < 0 {
		return usageErr(fs, "-minetime %v is negative", *mineTime)
	}
	if *servers < 0 {
		return usageErr(fs, "-servers %d is negative", *servers)
	}
	opt := exp.Options{
		Records:        *records,
		Parallelism:    *parallelism,
		Shards:         *shards,
		AsyncPrefetch:  *asyncPrefetch,
		MineTime:       *mineTime,
		ClusterServers: *servers,
	}

	cmds := fs.Args()
	if len(cmds) == 1 && cmds[0] == "all" {
		cmds = []string{"fig1", "table2", "fig3", "fig5", "fig6", "fig7", "fig8", "table3", "table4", "ablation", "quality", "asynclat", "cluster"}
	}

	var comparison []exp.PolicyRun
	needComparison := func() []exp.PolicyRun {
		if comparison == nil {
			comparison = exp.ComparePolicies(opt)
		}
		return comparison
	}

	for _, cmd := range cmds {
		switch strings.ToLower(cmd) {
		case "fig1":
			section("Figure 1 — inter-file access probability per attribute conditioning")
			fmt.Println(exp.Fig1(opt))
		case "table2":
			section("Table 2 — DPA vs IPA on the paper's worked example")
			fmt.Println(exp.Table2())
		case "fig3":
			traces := []string{"LLNL", "INS", "RES", "HP"}
			if *traceName != "" {
				traces = []string{*traceName}
			}
			for _, tr := range traces {
				section(fmt.Sprintf("Figure 3 — hit ratio vs max_strength per weight p (%s)", tr))
				fmt.Println(exp.Fig3(opt, tr))
			}
		case "fig5":
			section("Figure 5 — hit ratio per attribute combination")
			fmt.Println(exp.Fig5(opt))
		case "fig6":
			section("Figure 6 — avg response time vs max_strength (HP)")
			fmt.Println(exp.Fig6(opt))
		case "fig7":
			section("Figure 7 — cache hit ratio comparison")
			fmt.Println(exp.Fig7(needComparison()))
		case "fig8":
			section("Figure 8 — average response time comparison")
			fmt.Println(exp.Fig8(needComparison()))
		case "table3":
			section("Table 3 — prefetching accuracy (HP)")
			fmt.Println(exp.Table3(needComparison()))
		case "table4":
			section("Table 4 — FARMER space overhead (max_strength = 0.4)")
			fmt.Println(exp.Table4(opt))
		case "quality":
			section("Mining quality — precision/recall/F1 vs ground truth (k=4)")
			fmt.Println(exp.MiningQuality(opt))
		case "asynclat":
			section("Sync vs async pipeline — demand latency under mining-heavy load")
			fmt.Println(exp.AsyncLatency(exp.SyncVsAsync(opt)))
		case "cluster":
			section("Multi-MDS cluster — global vs per-partition mining")
			fmt.Println(exp.ClusterTable(exp.ClusterGlobalVsLocal(opt)))
		case "ablation":
			tr := *traceName
			if tr == "" {
				tr = "HP"
			}
			section(fmt.Sprintf("Ablation — threshold filtering footprint (%s)", tr))
			fmt.Println(exp.AblationFootprint(opt, tr))
		default:
			return usageErr(fs, "unknown experiment %q", cmd)
		}
	}
	return 0
}

func section(title string) {
	fmt.Printf("== %s ==\n", title)
}
