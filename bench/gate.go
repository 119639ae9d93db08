package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"farmer"
	"farmer/internal/cache"
	"farmer/internal/core"
	"farmer/internal/predictors"
	"farmer/internal/trace"
)

// reference is what the daemon's output is held against: a sequential
// single-lock core.Model fed, in process, exactly the records the daemon
// acked, and the cache.LRU an in-process FPA loop over the same demand
// segments leaves behind.
type reference struct {
	model *core.Model
	lru   cache.Metrics
}

// buildReference replays the instance's op sequence through an in-process
// predictors.FPA over core.Model and a cache.LRU.
func (in *instance) buildReference() *reference {
	model := core.New(farmer.DefaultConfig())
	fpa := predictors.NewFPA(model)
	lru := cache.NewLRU(lruCapacity)
	for _, seg := range in.segments {
		for c := 0; c < seg.chunks; c++ {
			pos := (seg.start + c) % in.sp.traceChunks
			recs := in.tr.Records[pos*chunk : (pos+1)*chunk]
			for i := range recs {
				rec := &recs[i]
				hit := seg.demand && lru.Access(rec.File)
				fpa.Record(rec)
				if !seg.demand || hit {
					continue
				}
				for _, f := range fpa.Predict(rec.File, predictK) {
					lru.Prefetch(f)
				}
			}
		}
	}
	return &reference{model: model, lru: lru.Metrics()}
}

// sampleFiles draws n file ids of the trace from the seed.
func sampleFiles(tr *trace.Trace, seed uint64, n int) []trace.FileID {
	rng := rand.New(rand.NewPCG(seed, 0x6a7e))
	out := make([]trace.FileID, n)
	for i := range out {
		out[i] = trace.FileID(rng.IntN(tr.FileCount))
	}
	return out
}

// checkCounts is the part of the gate that needs no reference: no op failed,
// the daemon mined every record it acked and nothing else, and the follower
// mined what the primary did. It returns the daemon's count.
func (in *instance) checkCounts(ctx context.Context) (fed uint64, err error) {
	if in.firstErr != nil {
		return 0, fmt.Errorf("%d of %d ops failed, first: %w", in.failed, in.attempted, in.firstErr)
	}
	st, err := in.m.Stats(ctx)
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	if st.Fed != in.sent {
		return 0, fmt.Errorf("daemon mined %d records, %d were acked", st.Fed, in.sent)
	}
	if in.follower != nil {
		fst, err := in.follower.Stats(ctx)
		if err != nil {
			return 0, fmt.Errorf("follower stats: %w", err)
		}
		if fst.Fed != st.Fed {
			return 0, fmt.Errorf("follower mined %d records, the primary %d", fst.Fed, st.Fed)
		}
	}
	return st.Fed, nil
}

// check is the correctness gate. It returns the first mismatch between the
// live daemons and the reference.
func (in *instance) check(ctx context.Context, ref *reference, seed uint64, samples int) error {
	fed, err := in.checkCounts(ctx)
	if err != nil {
		return err
	}
	if want := ref.model.Fed(); fed != want {
		return fmt.Errorf("daemon mined %d records, the reference %d", fed, want)
	}
	if got := in.lru.Metrics(); got != ref.lru {
		return fmt.Errorf("client cache %+v, in-process FPA reference %+v", got, ref.lru)
	}
	for _, f := range sampleFiles(in.tr, seed, samples) {
		got, err := in.m.CorrelatorList(ctx, f)
		if err != nil {
			return fmt.Errorf("correlator list of file %d: %w", f, err)
		}
		if err := sameList(got, ref.model.CorrelatorList(f)); err != nil {
			return fmt.Errorf("correlator list of file %d: %w", f, err)
		}
	}
	return nil
}

// sameList demands bitwise float equality: the sharded daemon promises the
// sequential miner's state, not an approximation of it.
func sameList(got, want []core.Correlator) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries over the wire, %d in the reference", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.File != w.File ||
			math.Float64bits(g.Degree) != math.Float64bits(w.Degree) ||
			math.Float64bits(g.Sim) != math.Float64bits(w.Sim) ||
			math.Float64bits(g.Freq) != math.Float64bits(w.Freq) {
			return fmt.Errorf("entry %d is %+v over the wire, %+v in the reference", i, g, w)
		}
	}
	return nil
}
