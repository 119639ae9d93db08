package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"farmer"
	"farmer/internal/cache"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// chunk is the unit every loop advances by: one FeedBatch frame on the batch
// workloads, 1024 single-record calls on the others, one span in a traced
// run. Trace lengths and every phase size are whole chunks, so a chunk never
// wraps the end of the cycled trace.
const chunk = 1024

// lruCapacity is the client-side metadata cache the predictions feed; k is
// the prefetch degree of the paper's FPA loop.
const (
	lruCapacity = 256
	predictK    = 4
)

type loopKind int

const (
	loopBatch  loopKind = iota // one FeedBatch per chunk
	loopSync                   // one synchronous Feed per record
	loopDemand                 // Access; Feed; on a miss Predict and Prefetch
)

// spec is one workload: a trace profile, the daemons it runs against, and
// the closed loop its single connection drives. Sizes are in chunks.
type spec struct {
	name string

	profile func(records int) tracegen.Profile
	// scaleFiles multiplies the profile's group and noise populations, for a
	// mined state several times the default.
	scaleFiles int
	tenant     bool // dial WithTenant/WithToken against -tenants-dir/-auth
	replicated bool // primary + follower pair

	kind      loopKind
	saveEvery int // main loop issues Save after every saveEvery chunks (0 = never)

	traceChunks int // generated records; one cycle of the timed window feeds them all once
	readChunks  int // the last readChunks of each cycle go through the FPA loop, not the workload's own
}

// mainChunks is the part of each cycle the workload's own loop feeds.
func (sp spec) mainChunks() int { return sp.traceChunks - sp.readChunks }

// sizes are the phase sizes common to the workloads. The smoke test shrinks
// them; the driver and the one-command run use defaultSizes.
type sizes struct {
	probeRounds     int // cache probe: read rounds ...
	probeChunks     int // ... of this many chunks each
	savesPerRound   int // save segment of a cycle: Saves ...
	chunksPerSave   int // ... with this many chunks fed before each
	minCycles       int // timed cycles always run, whatever the time budget
	sampleFiles     int // Correlator Lists the gate compares
	setups          int // set-ups per run; setup_s is their median
	layerPassChunks int // chunks each in-process layer replay times
}

var defaultSizes = sizes{
	probeRounds: 4, probeChunks: 4,
	savesPerRound: 8, chunksPerSave: 8,
	minCycles:   5,
	sampleFiles: 1024,
	setups:      5,

	layerPassChunks: 64,
}

const benchTenant, benchToken = "bench", "tok"

func specs() []spec {
	return []spec{
		{
			// Batched ingest of a 54k-file path trace: mining core (vsm, graph,
			// evaluate/sort) dominates, one RTT per 1024 records.
			name:    "ingest_batch",
			profile: tracegen.HP, scaleFiles: 10,
			kind:        loopBatch,
			traceChunks: 192, readChunks: 16,
		},
		{
			// One synchronous Feed per path-less record through hello/token/tenant
			// admit: the wire dominates, mining is a tenth of each op.
			name:    "feed_sync",
			profile: tracegen.RES, tenant: true,
			kind:        loopSync,
			traceChunks: 64, readChunks: 16,
		},
		{
			// The paper's FPA loop (Access, Feed, on a miss Predict+Prefetch) on one
			// connection: reads beside writes on the same miner.
			name:        "mds_demand",
			profile:     tracegen.HP,
			kind:        loopDemand,
			traceChunks: 64,
		},
		{
			// Batched ingest through a primary+follower pair with a client Save
			// every 8 batches: replicate-then-ack, second encode, checkpoint,
			// kvstore.
			name:    "ingest_replicated",
			profile: tracegen.HP, replicated: true,
			kind: loopBatch, saveEvery: 8,
			traceChunks: 64, readChunks: 16,
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs() {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func (sp spec) generate(seed uint64) (*trace.Trace, error) {
	p := sp.profile(sp.traceChunks * chunk)
	p.Seed = seed
	if sp.scaleFiles > 1 {
		p.Groups *= sp.scaleFiles
		p.NoiseFiles *= sp.scaleFiles
	}
	return p.Generate()
}

// round is what one fixed-work pass of a loop measured.
type round struct {
	records int
	wall    time.Duration
	feed    []time.Duration // one per acked write call (Feed or FeedBatch)
	predict []time.Duration
	save    []time.Duration
}

func (r round) recordsPerSec() float64 { return float64(r.records) / r.wall.Seconds() }

// segment is one stretch of the op sequence, kept so the gate's in-process
// reference can replay exactly what the daemon was sent.
type segment struct {
	start  int // first chunk of the cycled trace
	chunks int
	demand bool
}

// instance is one set-up workload: live daemons, a dialed connection, and
// the position in the cycled trace.
type instance struct {
	sp   spec
	tr   *trace.Trace
	dir  string
	argv [][]string

	daemons  []*daemon // in launch order; the last one takes the writes
	m        *farmer.RemoteMiner
	follower *farmer.RemoteMiner // read-only view of the follower, replicated only

	pos      int // next chunk of the cycled trace
	sent     uint64
	segments []segment
	lru      *cache.LRU

	attempted, failed int
	firstErr          error

	spans *tracer // nil unless this is a traced run
}

func (in *instance) nextChunk() []trace.Record {
	lo := in.pos * chunk
	in.pos = (in.pos + 1) % in.sp.traceChunks
	return in.tr.Records[lo : lo+chunk]
}

// op accounts one client call; any returned error is a failed op.
func (in *instance) op(err error) {
	in.attempted++
	if err != nil {
		in.failed++
		if in.firstErr == nil {
			in.firstErr = err
		}
	}
}

// setUp generates the trace, starts the workload's daemons, dials, and warms
// the miner with one pass of the trace, so the timed phases run against a
// steady-state model and a sized heap. It returns the instance and how long
// all of that took — the workload's setup_s sample.
func setUp(ctx context.Context, sp spec, seed uint64, bin, scratch string) (*instance, time.Duration, error) {
	start := time.Now()
	in := &instance{sp: sp, lru: cache.NewLRU(lruCapacity)}
	ok := false
	defer func() {
		if !ok {
			in.tearDown()
		}
	}()
	var err error
	if in.tr, err = sp.generate(seed); err != nil {
		return nil, 0, err
	}
	if in.dir, err = os.MkdirTemp(scratch, sp.name+"-"); err != nil {
		return nil, 0, err
	}
	launch := func(args ...string) (*daemon, error) {
		d, err := startDaemon(bin, append([]string{"-shards", "2"}, args...)...)
		if err != nil {
			return nil, err
		}
		in.daemons = append(in.daemons, d)
		in.argv = append(in.argv, d.argv)
		return d, nil
	}
	var dialOpts []farmer.DialOption
	switch {
	case sp.replicated:
		f, err := launch("-follow", "-store", filepath.Join(in.dir, "f.wal"))
		if err != nil {
			return nil, 0, err
		}
		if _, err := launch("-store", filepath.Join(in.dir, "p.wal"), "-replicate-to", f.addr); err != nil {
			return nil, 0, err
		}
		if in.follower, err = farmer.Dial(ctx, f.addr); err != nil {
			return nil, 0, err
		}
	case sp.tenant:
		if _, err := launch("-tenants-dir", filepath.Join(in.dir, "tenants"), "-auth", benchToken+"=*"); err != nil {
			return nil, 0, err
		}
		dialOpts = []farmer.DialOption{farmer.WithTenant(benchTenant), farmer.WithToken(benchToken)}
	default:
		if _, err := launch("-store", filepath.Join(in.dir, "m.wal")); err != nil {
			return nil, 0, err
		}
	}
	if in.m, err = farmer.Dial(ctx, in.daemons[len(in.daemons)-1].addr, dialOpts...); err != nil {
		return nil, 0, err
	}
	in.runRound(ctx, "warm", loopBatch, sp.traceChunks, 0)
	if sp.saveEvery > 0 {
		// The first Save is the full one that turns dirty tracking on; the
		// timed loop then sees only the steady state of delta checkpoints.
		in.op(in.m.Save(ctx))
	}
	if in.firstErr != nil {
		return nil, 0, fmt.Errorf("%s warm-up: %w", sp.name, in.firstErr)
	}
	ok = true
	return in, time.Since(start), nil
}

// tearDown closes the connections, stops every daemon and waits for each to
// exit, and removes the WALs.
func (in *instance) tearDown() error {
	var first error
	if in.m != nil {
		_ = in.m.Close()
	}
	if in.follower != nil {
		_ = in.follower.Close()
	}
	for _, d := range in.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	if in.dir != "" {
		if err := os.RemoveAll(in.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runRound drives one fixed-work pass of a closed loop: the next request is
// sent only after the previous one was acked, as an MDS does.
func (in *instance) runRound(ctx context.Context, name string, kind loopKind, chunks, saveEvery int) round {
	r := round{records: chunks * chunk}
	switch kind {
	case loopBatch:
		r.feed = make([]time.Duration, 0, chunks)
	default:
		r.feed = make([]time.Duration, 0, chunks*chunk)
		r.predict = make([]time.Duration, 0, chunks*chunk/2)
	}
	in.segments = append(in.segments, segment{start: in.pos, chunks: chunks, demand: kind == loopDemand})
	parent := in.spans.begin(name, noSpan, -1)
	start := time.Now()
	for c := 0; c < chunks; c++ {
		recs := in.nextChunk()
		span := in.spans.begin(name+".chunk", parent, c)
		switch kind {
		case loopBatch:
			t := time.Now()
			err := in.m.FeedBatch(ctx, recs)
			r.feed = append(r.feed, time.Since(t))
			in.op(err)
			if err == nil {
				in.sent += chunk
			}
		default:
			for i := range recs {
				rec := &recs[i]
				hit := kind == loopDemand && in.lru.Access(rec.File)
				t := time.Now()
				err := in.m.Feed(ctx, rec)
				r.feed = append(r.feed, time.Since(t))
				in.op(err)
				if err == nil {
					in.sent++
				}
				if kind != loopDemand || hit {
					continue
				}
				t = time.Now()
				cands, err := in.m.Predict(ctx, rec.File, predictK)
				r.predict = append(r.predict, time.Since(t))
				in.op(err)
				for _, f := range cands {
					in.lru.Prefetch(f)
				}
			}
		}
		in.spans.end(span)
		if saveEvery > 0 && (c+1)%saveEvery == 0 {
			span := in.spans.begin(name+".save", parent, c)
			t := time.Now()
			err := in.m.Save(ctx)
			r.save = append(r.save, time.Since(t))
			in.op(err)
			in.spans.end(span)
		}
	}
	r.wall = time.Since(start)
	in.spans.end(parent)
	return r
}
