package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"farmer/internal/cache"
)

// run is one untraced workload run: set-up, the fixed-work cache probe, one
// untimed cycle and the gate on it, then timed cycles until -seconds are
// spent, and the closing count check.
//
// A cycle feeds the whole trace once, from chunk 0: the workload's own loop
// over the first mainChunks, the paper's FPA loop over the rest (on the
// workloads whose own loop is not that one), and then, on the workloads whose
// own loop never checkpoints, a save segment: the first chunks again by
// FeedBatch with a client Save at the replicated workload's cadence. Every
// cycle therefore does the same work, each segment is long enough (half a
// second or more) to hold its share of the daemon's own periodic costs,
// garbage collection first among them, and every metric is sampled from one
// end of the run to the other.
type run struct {
	sp      spec
	sz      sizes
	seed    uint64
	bin     string
	scratch string

	in      *instance
	setupS  []float64
	main    []round       // the main segment of each timed cycle
	reads   []round       // its read segment
	save    []round       // its save segment
	cache   cache.Metrics // the client cache as the cache probe left it
	gateErr error

	used time.Duration // wall time of the timed cycles so far
}

// setUp sets the workload up and keeps the instance. It is the first of
// sz.setups samples of setup_s; timedCycle takes the others.
func (r *run) setUp(ctx context.Context) error {
	in, d, err := setUp(ctx, r.sp, r.seed, r.bin, r.scratch)
	if err != nil {
		return err
	}
	r.in = in
	r.setupS = append(r.setupS, d.Seconds())
	return nil
}

// setUpAgain sets the workload up once more beside the live instance and
// tears that second instance down at once, for one more sample of setup_s.
func (r *run) setUpAgain(ctx context.Context) error {
	in, d, err := setUp(ctx, r.sp, r.seed, r.bin, r.scratch)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, d.Seconds())
	return in.tearDown()
}

// cacheProbe runs a fixed number of read rounds on the freshly warmed miner.
// Every workload runs it, so each reports the cache quantities against its
// own daemons and state; fixed work on a fixed state makes them repeat
// exactly for a seed.
func (r *run) cacheProbe(ctx context.Context) {
	for i := 0; i < r.sz.probeRounds; i++ {
		r.in.runRound(ctx, "probe", loopDemand, r.sz.probeChunks, 0)
	}
	r.cache = r.in.lru.Metrics()
}

// cycle runs one cycle and returns its wall time.
func (r *run) cycle(ctx context.Context) (main, reads, save round, wall time.Duration) {
	start := time.Now()
	r.in.pos = 0 // every cycle sends the same records through the same calls
	main = r.in.runRound(ctx, "main", r.sp.kind, r.sp.mainChunks(), r.sp.saveEvery)
	if r.sp.readChunks > 0 {
		reads = r.in.runRound(ctx, "read", loopDemand, r.sp.readChunks, 0)
	}
	if r.sp.saveEvery == 0 {
		// An untimed Save first, so that each timed one writes what its own
		// chunksPerSave chunks dirtied and not the whole cycle before it.
		r.in.op(r.in.m.Save(ctx))
		r.in.pos = 0
		save = r.in.runRound(ctx, "save", loopBatch, r.sz.savesPerRound*r.sz.chunksPerSave, r.sz.chunksPerSave)
	}
	return main, reads, save, time.Since(start)
}

// gate runs one untimed cycle and then holds the daemons against an
// in-process reference fed the same warm-up, probe and cycle. The gate sits
// here and not after the timed cycles because the reference mines on one
// core at about the daemons' own speed: replaying them would take as long as
// they did. What they add is checked by count when the run ends.
func (r *run) gate(ctx context.Context) {
	r.cycle(ctx)
	r.gateErr = r.in.check(ctx, r.in.buildReference(), r.seed, r.sz.sampleFiles)
}

// due reports whether the run has timed cycles left.
func (r *run) due(seconds float64) bool {
	return len(r.main) < r.sz.minCycles || r.used.Seconds() < seconds
}

// timedCycle runs one timed cycle. The set-ups after the first are spread
// evenly between the cycles, so that setup_s, like every other metric, is
// sampled from one end of the run to the other and a slow minute of the host
// cannot take all of its samples.
func (r *run) timedCycle(ctx context.Context, seconds float64) error {
	main, reads, save, wall := r.cycle(ctx)
	r.used += wall
	r.main = append(r.main, main)
	if r.sp.readChunks > 0 {
		r.reads = append(r.reads, reads)
	}
	if r.sp.saveEvery == 0 {
		r.save = append(r.save, save)
	}
	if n := len(r.setupS); n < r.sz.setups && r.used.Seconds() >= seconds*float64(n)/float64(r.sz.setups) {
		return r.setUpAgain(ctx)
	}
	return nil
}

// overRounds builds a metric from f's value in each round: its best decile
// over the rounds, with their median beside it.
func overRounds(name, unit string, higher bool, rounds []round, f func(round) (v float64, samples, beyond int)) metric {
	m := metric{Name: name, Unit: unit}
	for _, rd := range rounds {
		v, n, b := f(rd)
		m.Rounds = append(m.Rounds, v)
		m.Samples += n
		m.Beyond += b
	}
	m.Value = bestDecile(m.Rounds, higher)
	m.Median = median(m.Rounds)
	return m
}

func latency(pick func(round) []time.Duration, q, unitNS float64) func(round) (float64, int, int) {
	return func(rd round) (float64, int, int) {
		d := pick(rd)
		ns, beyond := percentile(d, q)
		return ns / unitNS, len(d), beyond
	}
}

func feedOf(rd round) []time.Duration    { return rd.feed }
func predictOf(rd round) []time.Duration { return rd.predict }
func saveOf(rd round) []time.Duration    { return rd.save }

// finish closes the gate and assembles the end-to-end metrics.
func (r *run) finish(ctx context.Context) workloadResult {
	in := r.in
	res := workloadResult{
		Workload:     r.sp.name,
		FarmerdArgv:  in.argv,
		RoundRecords: r.sp.mainChunks() * chunk,
		MainRounds:   len(r.main),
	}
	// Single-record write latencies and read latencies come from the main
	// segment where it issues such calls, and from the read segment where it
	// does not.
	single, reads := r.reads, r.reads
	if r.sp.kind != loopBatch {
		single = r.main
	}
	if r.sp.kind == loopDemand {
		reads = r.main
	}
	saves := r.save
	if r.sp.saveEvery > 0 {
		saves = r.main
	}
	res.add(metric{Name: "setup_s", Unit: "s", Value: median(r.setupS), Median: median(r.setupS), Rounds: r.setupS})
	res.add(overRounds("records_per_s", "rec/s", true, r.main, func(rd round) (float64, int, int) {
		return rd.recordsPerSec(), rd.records, 0
	}))
	res.add(overRounds("ack_p50_us", "us", false, r.main, latency(feedOf, 0.50, 1e3)))
	res.add(overRounds("ack_p99_us", "us", false, single, latency(feedOf, 0.99, 1e3)))
	res.add(overRounds("predict_p50_us", "us", false, reads, latency(predictOf, 0.50, 1e3)))
	res.add(overRounds("predict_p99_us", "us", false, reads, latency(predictOf, 0.99, 1e3)))
	res.add(overRounds("save_p50_ms", "ms", false, saves, latency(saveOf, 0.50, 1e6)))
	res.add(metric{Name: "cache_hit_ratio", Unit: "ratio", Value: r.cache.HitRatio(), Samples: int(r.cache.Lookups)})
	res.add(metric{Name: "prefetch_accuracy", Unit: "ratio", Value: r.cache.PrefetchAccuracy(), Samples: int(r.cache.Prefetched)})
	err := r.gateErr
	if err == nil {
		_, err = in.checkCounts(ctx)
	}
	res.seal(in, err)
	return res
}

// seal closes the op accounting on the gate's verdict: a failed gate fails
// every op of the workload, and a metric that is not a finite number fails
// the gate.
func (w *workloadResult) seal(in *instance, err error) {
	for _, m := range w.Metrics {
		if err == nil && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			err = fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	w.Attempted, w.Failed = in.attempted, in.failed
	w.Correct = err == nil
	if err != nil {
		w.GateError = err.Error()
		w.Failed = w.Attempted
		for i := range w.Metrics {
			if math.IsNaN(w.Metrics[i].Value) || math.IsInf(w.Metrics[i].Value, 0) {
				w.Metrics[i].Value = 0
			}
		}
	}
}

// runUntraced measures the given workloads end to end. Their timed cycles
// are interleaved round-robin, so slow drift of the machine lands on every
// workload alike; the daemons of all of them stay up until the end.
func runUntraced(ctx context.Context, sps []spec, sz sizes, seed uint64, seconds float64, bin, scratch string) ([]workloadResult, error) {
	runs := make([]*run, len(sps))
	defer func() {
		for _, r := range runs {
			if r != nil && r.in != nil {
				_ = r.in.tearDown()
			}
		}
	}()
	for i, sp := range sps {
		runs[i] = &run{sp: sp, sz: sz, seed: seed, bin: bin, scratch: scratch}
		if err := runs[i].setUp(ctx); err != nil {
			return nil, err
		}
	}
	for _, r := range runs {
		r.cacheProbe(ctx)
		r.gate(ctx)
	}
	for due := true; due; {
		due = false
		for _, r := range runs {
			if r.due(seconds) {
				if err := r.timedCycle(ctx, seconds); err != nil {
					return nil, err
				}
				due = true
			}
		}
	}
	results := make([]workloadResult, len(runs))
	var first error
	for i, r := range runs {
		results[i] = r.finish(ctx)
		err := r.in.tearDown()
		r.in = nil
		if err != nil && first == nil {
			first = err
		}
	}
	return results, first
}
