// Command mdsim replays a trace (from a file or generated on the fly)
// through the simulated HUSt metadata server under a chosen prefetch policy
// and reports hit ratio, prefetching accuracy and response time.
//
// Usage:
//
//	mdsim -profile HP -records 50000 -policy farmer
//	mdsim -in trace.bin -policy nexus -cache 512
//	mdsim -servers 4 -global -partition hash -minetime 1ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/predictors"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func main() {
	profile := flag.String("profile", "HP", "generate this workload profile (ignored with -in)")
	records := flag.Int("records", 50000, "records to generate (ignored with -in)")
	in := flag.String("in", "", "read a trace file instead of generating (text or binary)")
	policy := flag.String("policy", "farmer", "prefetch policy: farmer, nexus, lru, ls, pbs, puls, probgraph")
	cacheCap := flag.Int("cache", 256, "metadata cache capacity (entries)")
	prefetchK := flag.Int("k", 4, "prefetch degree")
	weight := flag.Float64("p", 0.7, "FARMER weight p")
	maxStrength := flag.Float64("strength", 0.4, "FARMER max_strength threshold")
	shards := flag.Int("shards", 0, "FARMER miner shards (0 = match MDS workers)")
	asyncPrefetch := flag.Bool("async-prefetch", false, "mine and predict off the demand path (shard-worker station)")
	mineTime := flag.Duration("minetime", 0, "modeled per-record mining CPU cost (sync: on the demand path)")
	pfQueue := flag.Int("pfqueue", 0, "bound on queued prefetches, drop-oldest beyond (0 = unbounded)")
	servers := flag.Int("servers", 1, "metadata servers (>1 replays a multi-MDS cluster)")
	global := flag.Bool("global", false, "mine the global model across the cluster (requires -servers > 1, farmer policy)")
	partName := flag.String("partition", "hash", "cluster partitioner: hash or group")
	netDelay := flag.Duration("netdelay", hust.DefaultGlobalConfig().NetDelay, "one-way inter-MDS event latency (global mining)")
	mailbox := flag.Int("mailbox", 0, "per-server event mailbox bound, drop-oldest beyond (0 = default)")
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "mdsim: -shards %d is negative\n", *shards)
		os.Exit(2)
	}
	if *servers < 1 {
		fmt.Fprintf(os.Stderr, "mdsim: -servers %d must be >= 1\n", *servers)
		os.Exit(2)
	}

	t, err := load(*in, *profile, *records)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
		os.Exit(1)
	}

	cfg := hust.DefaultReplayConfig()
	cfg.MDS.CacheCapacity = *cacheCap
	cfg.MDS.PrefetchK = *prefetchK
	cfg.MDS.AsyncPrefetch = *asyncPrefetch
	cfg.MDS.MineTime = *mineTime
	cfg.MDS.PrefetchQueue = *pfQueue
	if err := cfg.MDS.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
		os.Exit(2)
	}

	mc := core.DefaultConfig()
	mc.Weight = *weight
	mc.MaxStrength = *maxStrength
	mc.Mask = vsm.DefaultMask(t.HasPaths)
	mc.Shards = *shards

	var part hust.Partitioner
	switch strings.ToLower(*partName) {
	case "hash":
		part = hust.HashPartitioner
	case "group":
		part = hust.GroupPartitioner
	default:
		fmt.Fprintf(os.Stderr, "mdsim: unknown partitioner %q (hash or group)\n", *partName)
		os.Exit(2)
	}

	// A lone MDS is a cluster of one; per-partition miners are the default
	// configuration, the cluster-level global miner comes with -global.
	farmer := strings.EqualFold(*policy, "farmer")
	top := hust.Topology{Servers: *servers, Partition: part, Factory: func(e *sim.Engine) (*hust.MDS, error) {
		if farmer {
			return hust.NewFARMERMDS(e, cfg.MDS, nil, mc)
		}
		p, err := buildPredictor(*policy)
		if err != nil {
			return nil, err
		}
		return hust.NewMDS(e, cfg.MDS, nil, p)
	}}
	mode := "per-partition"
	if *global {
		if *servers == 1 {
			fmt.Fprintln(os.Stderr, "mdsim: -global requires -servers > 1")
			os.Exit(2)
		}
		if !farmer {
			fmt.Fprintf(os.Stderr, "mdsim: global mining requires -policy farmer, got %q\n", *policy)
			os.Exit(1)
		}
		mode = "global"
		top.Global = &hust.GlobalConfig{Miner: mc, NetDelay: *netDelay, MailboxCap: *mailbox}
	}

	start := time.Now()
	cs, c, err := hust.Replay(t, cfg, top)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start).Round(time.Millisecond)
	lone := *servers == 1
	if lone {
		fmt.Printf("trace=%s policy=%s records=%d wall=%v\n", t.Name, c.Server(0).Predictor().Name(), cs.Demand, wall)
	} else {
		fmt.Printf("trace=%s servers=%d partition=%s mining=%s records=%d wall=%v\n",
			t.Name, *servers, strings.ToLower(*partName), mode, cs.Demand, wall)
	}
	fmt.Printf("  hit ratio          %.4f\n", cs.HitRatio)
	if lone {
		fmt.Printf("  prefetch accuracy  %.4f (%d issued)\n", cs.PerServer[0].Cache.PrefetchAccuracy(), cs.PerServer[0].PrefetchIssued)
	}
	fmt.Printf("  avg response       %v\n", cs.AvgResponse)
	fmt.Printf("  p95 response       %v\n", cs.P95Response)
	fmt.Printf("  avg demand wait    %v\n", cs.AvgDemandWait)
	if lone {
		st := cs.PerServer[0]
		fmt.Printf("  MDS utilisation    %.3f\n", st.Utilization)
		fmt.Printf("  store reads        %d\n", st.StoreReads)
		fmt.Printf("  prefetch dropped   %d (of %d issued)\n", st.PrefetchDropped, st.PrefetchIssued)
		if *asyncPrefetch {
			fmt.Printf("  mining avg wait    %v (off the demand path)\n", st.MineAvgWait)
			fmt.Printf("  miner utilisation  %.3f (excluded from MDS utilisation)\n", st.MineUtilization)
		}
		fmt.Printf("  client avg (RTT)   %v\n", cs.ClientAvg)
	} else {
		fmt.Printf("  load imbalance     %.3f\n", cs.Imbalance)
	}
	if g := cs.Global; g != nil {
		fmt.Printf("  mined records      %d (cluster dispatcher)\n", g.Fed)
		fmt.Printf("  mining events      %d (%.1f%% cross-MDS)\n", g.Events, 100*g.CrossRatio)
		fmt.Printf("  cross prefetches   %d (routed to the successor's server)\n", g.CrossPrefetches)
		fmt.Printf("  mailbox dropped    %d\n", g.MailboxDropped)
	}
}

func load(in, profile string, records int) (*trace.Trace, error) {
	if in == "" {
		p, ok := tracegen.ByName(profile, records)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", profile)
		}
		return p.Generate()
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(in, ".bin") {
		return trace.ReadBinary(f)
	}
	return trace.ReadText(f)
}

func buildPredictor(name string) (predictors.Predictor, error) {
	switch strings.ToLower(name) {
	case "nexus":
		return predictors.NewNexus(predictors.DefaultNexusConfig()), nil
	case "lru", "none":
		return predictors.NewNone(), nil
	case "ls":
		return predictors.NewLastSuccessor(), nil
	case "pbs":
		return predictors.NewPBS(), nil
	case "puls":
		return predictors.NewPULS(), nil
	case "probgraph":
		return predictors.NewProbabilityGraph(2, 0.1), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
