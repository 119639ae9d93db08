package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"farmer"
	"farmer/internal/cache"
	"farmer/internal/core"
	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/rpc"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// tracePairs is how many (untraced, traced) pairs of main rounds the traced
// run alternates to price the tracing itself. Each of these rounds is one
// whole cycle of the trace, so both sides of the ratio do the same work.
const tracePairs = 2

// layers collects the per-layer metrics of one traced run. Every replay
// below works on the workload's own records and records one span per
// 1024-record chunk, named after the layer call it wraps.
type layers struct {
	sp    spec
	sz    sizes
	tr    *trace.Trace
	cfg   core.Config
	spans *tracer
	root  int // span every replay span hangs off
	res   *workloadResult

	timed []trace.Record // the chunks each replay times, after a full warm pass
}

func (l *layers) add(name, unit string, v float64) {
	l.res.add(metric{Name: name, Unit: unit, Value: v})
}

// perRecord times fn once per timed chunk under spans called name and
// returns the mean nanoseconds per record.
func (l *layers) perRecord(name string, fn func(recs []trace.Record)) float64 {
	n := 0
	for c := 0; c*chunk < len(l.timed); c++ {
		recs := l.timed[c*chunk : (c+1)*chunk]
		id := l.spans.begin(name, l.root, c)
		fn(recs)
		l.spans.end(id)
		n += len(recs)
	}
	return float64(l.spans.total(name)) / float64(n)
}

// warm feeds the whole trace once, untimed, so a replayed layer is timed in
// the steady state the live daemons were timed in.
func (l *layers) warm(feed func(recs []trace.Record)) {
	for c := 0; c < l.sp.traceChunks; c++ {
		feed(l.tr.Records[c*chunk : (c+1)*chunk])
	}
}

// codec times the record codec and the frame codec, the two layers every
// record crosses twice on its way to an ack (and four times when replicated).
func (l *layers) codec() {
	var buf []byte
	var encoded [][]byte
	var size int
	enc := l.perRecord("trace.encode", func(recs []trace.Record) {
		buf = buf[:0]
		for i := range recs {
			buf = trace.AppendRecord(buf, &recs[i])
		}
		size += len(buf)
		encoded = append(encoded, append([]byte(nil), buf...))
	})
	c := 0
	dec := l.perRecord("trace.decode", func(recs []trace.Record) {
		b := encoded[c]
		c++
		for len(b) > 0 {
			var err error
			if _, b, err = trace.ConsumeRecord(b); err != nil {
				panic(err) // our own encoding
			}
		}
	})
	l.add("trace.encode_ns_per_record", "ns", enc)
	l.add("trace.decode_ns_per_record", "ns", dec)
	l.add("trace.bytes_per_record", "B", float64(size)/float64(len(l.timed)))

	tenant := ""
	if l.sp.tenant {
		tenant = benchTenant
	}
	var frame []byte
	var id uint64
	perRec := l.perRecord("rpc.frame", func(recs []trace.Record) {
		id++
		frame = rpc.AppendFrameTenant(frame[:0], rpc.MsgFeedBatch, id, tenant, encoded[id-1])
		if _, err := rpc.ReadFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil {
			panic(err) // our own encoding
		}
	})
	l.add("rpc.frame_ns_per_frame", "ns", perRec*chunk)
}

// nullBackend mines nothing: a server over it costs exactly the wire.
type nullBackend struct{}

func (nullBackend) Feed(*trace.Record) error                      { return nil }
func (nullBackend) FeedBatch([]trace.Record) error                { return nil }
func (nullBackend) Predict(trace.FileID, int) []trace.FileID      { return nil }
func (nullBackend) CorrelatorList(trace.FileID) []core.Correlator { return nil }
func (nullBackend) Stats() core.Stats                             { return core.Stats{} }
func (nullBackend) ApplyEvents([]partition.Event) error           { return nil }
func (nullBackend) Save() error                                   { return nil }
func (nullBackend) Load() error                                   { return nil }

// wire times Client.Feed and Client.FeedBatch against rpc.NewServer over a
// no-op backend on loopback: the cost of codec, framing and a loopback round
// trip with zero mining and no process boundary.
func (l *layers) wire(ctx context.Context) (err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := rpc.NewServer(nullBackend{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if serr := srv.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
	}()
	c, err := rpc.Dial(ctx, lis.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()

	rtts := make([]time.Duration, 0, len(l.timed))
	var ferr error
	l.perRecord("rpc.null_feed", func(recs []trace.Record) {
		for i := range recs {
			t := time.Now()
			if err := c.Feed(ctx, &recs[i]); err != nil && ferr == nil {
				ferr = err
			}
			rtts = append(rtts, time.Since(t))
		}
	})
	batch := l.perRecord("rpc.null_feedbatch", func(recs []trace.Record) {
		if err := c.FeedBatch(ctx, recs); err != nil && ferr == nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("null-backend loopback: %w", ferr)
	}
	p50, _ := percentile(rtts, 0.50)
	l.add("rpc.null_rtt_us_p50", "us", p50/1e3)
	l.add("rpc.null_batch_ns_per_record", "ns", batch)
	return nil
}

// dispatch times the serial fraction of a sharded FeedBatch: window replay
// and event fan-out (Stage-1 extraction included, as in the live path).
func (l *layers) dispatch() {
	d := partition.NewDispatcher(partition.Config{Owners: 2, Mask: l.cfg.Mask, PathAlg: l.cfg.PathAlg, Graph: l.cfg.Graph})
	perOwner := make([]int, 2)
	count := func(owner int, _ partition.Event) { perOwner[owner]++ }
	l.warm(func(recs []trace.Record) {
		for i := range recs {
			d.Dispatch(&recs[i], func(int, partition.Event) {})
		}
	})
	ns := l.perRecord("partition.dispatch", func(recs []trace.Record) {
		for i := range recs {
			d.Dispatch(&recs[i], count)
		}
	})
	total := perOwner[0] + perOwner[1]
	l.add("partition.dispatch_ns_per_record", "ns", ns)
	l.add("partition.events_per_record", "count", float64(total)/float64(len(l.timed)))
	l.add("partition.owner_skew", "ratio", float64(max(perOwner[0], perOwner[1]))/(float64(total)/2))
}

// stages times Stage 1 (vsm), Stage 2 (graph) and the whole single-lock
// Model.Feed; Stage 3/4 self time is what the first two leave of the third.
func (l *layers) stages() (predictNS float64) {
	ex := vsm.NewExtractor(l.cfg.Mask)
	ex.Alg = l.cfg.PathAlg
	vecs := make([]vsm.Vector, chunk)
	extract := l.perRecord("vsm.extract", func(recs []trace.Record) {
		for i := range recs {
			vecs[i] = ex.Extract(&recs[i])
		}
	})
	var sink float64
	sim := l.perRecord("vsm.sim", func(recs []trace.Record) {
		for i := 1; i < len(vecs); i++ {
			sink += vsm.Sim(&vecs[i-1], &vecs[i], l.cfg.PathAlg)
		}
	})
	_ = sink
	l.add("vsm.extract_ns_per_record", "ns", extract)
	l.add("vsm.sim_ns_per_pair", "ns", sim*chunk/(chunk-1))

	g := graph.New(l.cfg.Graph)
	l.warm(func(recs []trace.Record) {
		for i := range recs {
			g.Feed(recs[i].File)
		}
	})
	gfeed := l.perRecord("graph.feed", func(recs []trace.Record) {
		for i := range recs {
			g.Feed(recs[i].File)
		}
	})
	l.add("graph.feed_ns_per_record", "ns", gfeed)
	l.add("graph.nodes", "count", float64(g.Nodes()))
	l.add("graph.edges", "count", float64(g.Edges()))

	m := core.New(l.cfg)
	l.warm(func(recs []trace.Record) {
		for i := range recs {
			m.Feed(&recs[i])
		}
	})
	changes := 0
	m.SetListChangeHook(func(trace.FileID) { changes++ })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed := l.perRecord("core.feed", func(recs []trace.Record) {
		for i := range recs {
			m.Feed(&recs[i])
		}
	})
	runtime.ReadMemStats(&after)
	n := float64(len(l.timed))
	l.add("core.feed_ns_per_record", "ns", feed)
	l.add("core.evaluate_self_ns_per_record", "ns", feed-extract-gfeed)
	l.add("core.allocs_per_record", "count", float64(after.Mallocs-before.Mallocs)/n)
	l.add("core.alloc_bytes_per_record", "B", float64(after.TotalAlloc-before.TotalAlloc)/n)
	l.add("core.list_changes_per_record", "count", float64(changes)/n)
	st := m.Stats()
	l.add("core.memory_bytes", "B", float64(st.MemoryBytes))
	l.add("core.lists", "count", float64(st.Lists))
	var psink int
	predictNS = l.perRecord("core.predict", func(recs []trace.Record) {
		for i := range recs {
			psink += len(m.Predict(recs[i].File, predictK))
		}
	})
	_ = psink
	l.add("core.predict_ns", "ns", predictNS)
	return predictNS
}

func shardedConfig(cfg core.Config) core.Config {
	cfg.Shards = 2
	return cfg
}

// sharded times the two-shard ensemble the daemons run, in process: through
// core.ShardedModel.FeedBatch, and through farmer.LocalMiner with the
// workload's own write call. It returns the latter for the budget.
func (l *layers) sharded(ctx context.Context) (localNS float64, err error) {
	sm := core.NewSharded(shardedConfig(l.cfg))
	l.warm(sm.FeedBatch)
	l.add("core.sharded_ns_per_record", "ns", l.perRecord("core.sharded", sm.FeedBatch))

	lm, err := farmer.Open(l.cfg, farmer.WithShards(2))
	if err != nil {
		return 0, err
	}
	defer lm.Close()
	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	l.warm(func(recs []trace.Record) { keep(lm.FeedBatch(ctx, recs)) })
	localNS = l.perRecord("farmer.local", func(recs []trace.Record) {
		if l.sp.kind == loopBatch {
			keep(lm.FeedBatch(ctx, recs))
			return
		}
		for i := range recs {
			keep(lm.Feed(ctx, &recs[i]))
		}
	})
	if ferr != nil {
		return 0, fmt.Errorf("in-process LocalMiner: %w", ferr)
	}
	l.add("farmer.local_ns_per_record", "ns", localNS)
	return localNS, nil
}

// persist times checkpoints of the two-shard ensemble into a kvstore at the
// live cadence: one full save, then a delta after every chunksPerSave chunks.
func (l *layers) persist(scratch string) error {
	dir, err := os.MkdirTemp(scratch, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := kvstore.Open(filepath.Join(dir, "layers.wal"))
	if err != nil {
		return err
	}
	defer st.Close()
	sm := core.NewSharded(shardedConfig(l.cfg))
	l.warm(sm.FeedBatch)
	id := l.spans.begin("core.save_full", l.root, -1)
	err = sm.SaveMerged(st)
	l.spans.end(id)
	if err != nil {
		return err
	}
	base := st.WriteStats()
	var deltas []time.Duration
	fed := 0
	for c := 0; (c+1)*chunk <= len(l.timed); c++ {
		sm.FeedBatch(l.timed[c*chunk : (c+1)*chunk])
		fed += chunk
		if (c+1)%l.sz.chunksPerSave != 0 {
			continue
		}
		id := l.spans.begin("core.save_delta", l.root, c)
		t := time.Now()
		incremental, err := sm.SaveCheckpoint(st)
		deltas = append(deltas, time.Since(t))
		l.spans.end(id)
		if err != nil {
			return err
		}
		if !incremental {
			return fmt.Errorf("checkpoint %d fell back to a full save", len(deltas))
		}
	}
	ws := st.WriteStats()
	p50, _ := percentile(deltas, 0.50)
	l.add("core.save_full_ms", "ms", float64(l.spans.total("core.save_full"))/1e6)
	l.add("core.save_delta_ms", "ms", p50/1e6)
	l.add("kvstore.puts_per_save", "count", float64(ws.Puts-base.Puts)/float64(len(deltas)))
	l.add("kvstore.wal_bytes_per_record", "B", float64(ws.Bytes-base.Bytes)/float64(fed))
	return nil
}

func (l *layers) lru() float64 {
	c := cache.NewLRU(lruCapacity)
	ns := l.perRecord("cache.access", func(recs []trace.Record) {
		for i := range recs {
			c.Access(recs[i].File)
		}
	})
	l.add("cache.access_ns", "ns", ns)
	return ns
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// live is what the traced run measured against live daemons, before any
// in-process replay: the rounds, and what daemons and generator counted and
// consumed while they ran.
type live struct {
	plain, traced []round // alternating main rounds, spans off and on
	reads         []round // the cache probe
	saves         []round // one save-probe round (none when the main loop checkpoints)
	fullSave      []time.Duration
	pings         []time.Duration
	cache         cache.Metrics

	wall      time.Duration
	records   float64                 // acked while the window was open
	serverNS  map[rpc.MsgType]float64 // daemon's mean handling time per frame type
	daemonCPU time.Duration           // all daemons
	rssPeakKB int64                   // all daemons
	clientCPU time.Duration
}

func (in *instance) wireStats(ctx context.Context) (map[rpc.MsgType]rpc.WireStat, error) {
	ws, err := in.m.WireStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("wire stats: %w", err)
	}
	out := make(map[rpc.MsgType]rpc.WireStat, len(ws))
	for _, w := range ws {
		out[w.Type] = w
	}
	return out, nil
}

func (in *instance) daemonUsage() (cpu time.Duration, rssPeakKB int64, err error) {
	for _, d := range in.daemons {
		u, err := d.usage()
		if err != nil {
			return 0, 0, err
		}
		cpu += u.cpu
		rssPeakKB += u.rssPeakKB
	}
	return cpu, rssPeakKB, nil
}

// runLive drives the live phases of a traced run and brackets them with
// readings of the daemons' WireStats and /proc and the generator's rusage.
func runLive(ctx context.Context, in *instance, sz sizes, spans *tracer) (*live, error) {
	sp := in.sp
	lv := &live{serverNS: map[rpc.MsgType]float64{}}
	before, err := in.wireStats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, _, err := in.daemonUsage()
	if err != nil {
		return nil, err
	}
	self0, sent0, start := selfCPU(), in.sent, time.Now()

	// Untraced and traced main rounds alternate, so the price of the spans
	// is a ratio of neighbours and not of distant minutes.
	for i := 0; i < tracePairs; i++ {
		in.spans = nil
		lv.plain = append(lv.plain, in.runRound(ctx, "main", sp.kind, sp.traceChunks, sp.saveEvery))
		in.spans = spans
		lv.traced = append(lv.traced, in.runRound(ctx, "main", sp.kind, sp.traceChunks, sp.saveEvery))
	}
	for i := 0; i < sz.probeRounds; i++ {
		lv.reads = append(lv.reads, in.runRound(ctx, "read", loopDemand, sz.probeChunks, 0))
	}
	lv.cache = in.lru.Metrics()
	if sp.saveEvery == 0 {
		// The one full checkpoint is timed apart from the delta statistics.
		t := time.Now()
		in.op(in.m.Save(ctx))
		lv.fullSave = append(lv.fullSave, time.Since(t))
		lv.saves = append(lv.saves, in.runRound(ctx, "save", loopBatch, sz.savesPerRound*sz.chunksPerSave, sz.chunksPerSave))
	}
	// Pings cross the process boundary and the frame codec and touch no
	// miner: the part of a single-record call's wait that an in-process
	// null server cannot see.
	lv.pings = make([]time.Duration, 0, sz.probeChunks*chunk)
	id := spans.begin("ping", noSpan, -1)
	for i := 0; i < cap(lv.pings); i++ {
		t := time.Now()
		_, err := in.m.Ping(ctx)
		lv.pings = append(lv.pings, time.Since(t))
		in.op(err)
	}
	spans.end(id)
	in.spans = nil

	lv.wall = time.Since(start)
	lv.records = float64(in.sent - sent0)
	lv.clientCPU = selfCPU() - self0
	after, err := in.wireStats(ctx)
	if err != nil {
		return nil, err
	}
	for t, a := range after {
		if n := a.Count - before[t].Count; n > 0 {
			lv.serverNS[t] = float64(a.SumNS-before[t].SumNS) / float64(n)
		}
	}
	cpu1, rss, err := in.daemonUsage()
	if err != nil {
		return nil, err
	}
	lv.daemonCPU, lv.rssPeakKB = cpu1-cpu0, rss
	return lv, nil
}

func medianRate(rds []round) float64 {
	var v []float64
	for _, rd := range rds {
		v = append(v, rd.recordsPerSec())
	}
	return median(v)
}

// liveMetrics reports what the live phases measured.
func (l *layers) liveMetrics(lv *live, buildS float64) {
	// Client-side means by call type, for the wait each call spent outside
	// the daemon's handler: in the kernel, on the loopback, in either
	// process's read and write loops.
	var singles, batches, predicts, saves []time.Duration
	for _, rd := range append(append([]round{}, lv.plain...), lv.traced...) {
		if l.sp.kind == loopBatch {
			batches = append(batches, rd.feed...)
		} else {
			singles = append(singles, rd.feed...)
		}
		predicts = append(predicts, rd.predict...)
		saves = append(saves, rd.save...)
	}
	for _, rd := range lv.reads {
		singles = append(singles, rd.feed...)
		predicts = append(predicts, rd.predict...)
	}
	for _, rd := range lv.saves {
		batches = append(batches, rd.feed...)
		saves = append(saves, rd.save...)
	}
	for _, call := range []struct {
		name   string
		typ    rpc.MsgType
		client []time.Duration
	}{
		{"feed", rpc.MsgFeed, singles},
		{"feedbatch", rpc.MsgFeedBatch, batches},
		{"predict", rpc.MsgPredict, predicts},
		{"save", rpc.MsgSave, append(lv.fullSave, saves...)},
	} {
		server := lv.serverNS[call.typ]
		l.add("rpc.server_mean_us."+call.name, "us", server/1e3)
		l.add("rpc.wire_wait_us."+call.name, "us", (mean(call.client)-server)/1e3)
	}
	pingP50, _ := percentile(lv.pings, 0.50)
	l.add("rpc.ping_rtt_us_p50", "us", pingP50/1e3)
	p99, _ := percentile(batches, 0.99)
	l.add("client.batch_ack_p99_us", "us", p99/1e3)
	p90, _ := percentile(saves, 0.90)
	l.add("client.save_p90_ms", "ms", p90/1e6)
	l.add("cache.hits", "count", float64(lv.cache.Hits))
	l.add("cache.prefetch_used", "count", float64(lv.cache.PrefetchUsed))
	l.add("cache.prefetch_wasted", "count", float64(lv.cache.PrefetchWasted))
	l.add("farmerd.cpu_us_per_record", "us", float64(lv.daemonCPU)/1e3/lv.records)
	l.add("farmerd.rss_peak_mb", "MB", float64(lv.rssPeakKB)/1024)
	l.add("client.cpu_share", "ratio", float64(lv.clientCPU)/float64(lv.wall))
	l.add("harness.build_s", "s", buildS)
	l.add("harness.trace_overhead", "ratio", medianRate(lv.plain)/medianRate(lv.traced))
}

// runTraced is the separate traced run the per-layer metrics come from: main
// rounds, the cache probe, a save-probe round and pings against live daemons
// with spans on, then in-process replays of the same records through each
// layer's public functions.
func runTraced(ctx context.Context, sp spec, sz sizes, seed uint64, buildS float64, bin, scratch string) (res workloadResult, err error) {
	in, _, err := setUp(ctx, sp, seed, bin, scratch)
	if err != nil {
		return res, err
	}
	defer func() {
		if terr := in.tearDown(); terr != nil && err == nil {
			err = terr
		}
	}()
	res = workloadResult{Workload: sp.name, Traced: true, FarmerdArgv: in.argv, RoundRecords: sp.traceChunks * chunk, MainRounds: 2 * tracePairs}
	spans := newTracer()
	lv, err := runLive(ctx, in, sz, spans)
	if err != nil {
		return res, err
	}
	l := &layers{sp: sp, sz: sz, tr: in.tr, cfg: farmer.DefaultConfig(), spans: spans, res: &res}
	l.liveMetrics(lv, buildS)
	e2eNS := 1e9 / medianRate(lv.plain)
	pingNS := mean(lv.pings)

	// In-process replays, each on a steady-state layer.
	l.root = spans.begin("replay", noSpan, -1)
	for c := 0; c < sz.layerPassChunks; c++ {
		at := (c % sp.traceChunks) * chunk
		l.timed = append(l.timed, in.tr.Records[at:at+chunk]...)
	}
	l.codec()
	if err := l.wire(ctx); err != nil {
		return res, err
	}
	l.dispatch()
	predictNS := l.stages()
	runtime.GC() // each replayed model is garbage once timed; do not bill it to the next
	localNS, err := l.sharded(ctx)
	if err != nil {
		return res, err
	}
	runtime.GC()
	if err := l.persist(scratch); err != nil {
		return res, err
	}
	runtime.GC()
	accessNS := l.lru()
	spans.end(l.root)
	l.add("farmer.wire_overhead_ns_per_record", "ns", e2eNS-localNS)

	// Replication and persistence, by differencing the same fixed round run
	// three ways: a lone daemon before its first Save (dirty tracking off,
	// as good as volatile), the same daemon checkpointing at the cadence,
	// and the primary+follower pair measured above.
	var replNS, persistNS, fedLag float64
	if sp.replicated {
		solo := sp
		solo.replicated = false
		volatileNS, savingNS, err := soloCosts(ctx, solo, seed, bin, scratch)
		if err != nil {
			return res, err
		}
		persistNS = savingNS - volatileNS
		replNS = e2eNS - savingNS
		p, perr := in.m.Stats(ctx)
		f, ferr := in.follower.Stats(ctx)
		if perr != nil || ferr != nil {
			return res, fmt.Errorf("replication lag: %v, %v", perr, ferr)
		}
		fedLag = float64(p.Fed) - float64(f.Fed)
	}
	l.add("persist.ns_per_record", "ns", persistNS)
	l.add("repl.ns_per_record", "ns", replNS)
	l.add("repl.follower_fed_lag", "count", fedLag)

	// The budget: what the layer costs above predict one record costs end to
	// end, over what it measured. A layer the budget gets wrong is a layer
	// not yet understood.
	nullBatch, _ := res.get("rpc.null_batch_ns_per_record")
	shardedNS, _ := res.get("core.sharded_ns_per_record")
	var predicted float64
	switch sp.kind {
	case loopBatch:
		predicted = nullBatch.Value + shardedNS.Value + persistNS + replNS
	case loopSync:
		predicted = pingNS + localNS
	case loopDemand:
		var misses, n int
		for _, rd := range lv.plain {
			misses += len(rd.predict)
			n += rd.records
		}
		predicted = accessNS + pingNS + localNS + float64(misses)/float64(n)*(pingNS+predictNS)
	}
	coverage := predicted / e2eNS
	l.add("budget.coverage", "ratio", coverage)
	if coverage < 0.7 || coverage > 1.3 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s budget covers %.2f of the end-to-end cost (layers predict %.0f ns/record, measured %.0f)\n",
			sp.name, coverage, predicted, e2eNS)
	}

	res.seal(in, in.check(ctx, in.buildReference(), seed, sz.sampleFiles))
	return res, spans.writeFile(filepath.Join(scratch, "trace_"+sp.name+".json"))
}

// soloCosts runs the batch round on one daemon without and then with
// checkpoints at the workload's cadence, and returns each in ns per record.
func soloCosts(ctx context.Context, solo spec, seed uint64, bin, scratch string) (volatileNS, savingNS float64, err error) {
	cadence := solo.saveEvery
	solo.saveEvery = 0 // no warm-up Save either
	in, _, err := setUp(ctx, solo, seed, bin, scratch)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if terr := in.tearDown(); terr != nil && err == nil {
			err = terr
		}
	}()
	cost := func(saveEvery int) float64 {
		var v []float64
		for i := 0; i < tracePairs; i++ {
			v = append(v, 1e9/in.runRound(ctx, "solo", loopBatch, solo.traceChunks, saveEvery).recordsPerSec())
		}
		return median(v)
	}
	volatileNS = cost(0)
	in.op(in.m.Save(ctx))
	savingNS = cost(cadence)
	if in.firstErr != nil {
		return 0, 0, fmt.Errorf("solo %s: %w", solo.name, in.firstErr)
	}
	return volatileNS, savingNS, nil
}
