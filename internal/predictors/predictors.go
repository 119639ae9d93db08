// Package predictors implements the file-access predictors the paper
// compares against or cites (§6) and an experiment or mdsim -policy names:
// Last Successor, Probability Graph (Griffioen & Appleton), Nexus (Gu et
// al., CCGRID'06), the program/user-conditioned variants PBS and PULS, and
// an adapter wrapping the FARMER model so every policy drives the same
// prefetching cache in the storage simulator.
package predictors

import (
	"sort"

	"farmer/internal/core"
	"farmer/internal/graph"
	"farmer/internal/trace"
)

// Predictor is a streaming successor predictor. Record observes one access;
// Predict proposes up to k files expected to be accessed soon after f.
// Implementations need not be safe for concurrent use.
type Predictor interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Record observes an access (with attributes).
	Record(r *trace.Record)
	// Predict returns up to k prefetch candidates for a demand access to f,
	// strongest first.
	Predict(f trace.FileID, k int) []trace.FileID
}

// ---------------------------------------------------------------- trivial

// LastSuccessor predicts the file that followed f the last time f was
// accessed.
type LastSuccessor struct {
	last map[trace.FileID]trace.FileID
	prev trace.FileID
	warm bool
}

// NewLastSuccessor returns an empty Last-Successor predictor.
func NewLastSuccessor() *LastSuccessor {
	return &LastSuccessor{last: make(map[trace.FileID]trace.FileID)}
}

// Name implements Predictor.
func (p *LastSuccessor) Name() string { return "LS" }

// Record implements Predictor.
func (p *LastSuccessor) Record(r *trace.Record) {
	if p.warm && p.prev != r.File {
		p.last[p.prev] = r.File
	}
	p.prev = r.File
	p.warm = true
}

// Predict implements Predictor.
func (p *LastSuccessor) Predict(f trace.FileID, k int) []trace.FileID {
	if k < 1 {
		return nil
	}
	if s, ok := p.last[f]; ok {
		return []trace.FileID{s}
	}
	return nil
}

// ---------------------------------------------------------- graph family

// graphPredictor is the shared machinery of Probability Graph and Nexus: a
// correlation graph fed with (optionally attribute-scoped) access streams,
// predicting the top-k strongest successors above a frequency floor.
type graphPredictor struct {
	name    string
	g       *graph.Graph
	minFreq float64
}

func (p *graphPredictor) Name() string { return p.name }

func (p *graphPredictor) Record(r *trace.Record) { p.g.Feed(r.File) }

func (p *graphPredictor) Predict(f trace.FileID, k int) []trace.FileID {
	if k < 1 {
		return nil
	}
	var out []trace.FileID
	for _, e := range p.g.Successors(f) {
		if p.g.Frequency(f, e.To) < p.minFreq {
			continue
		}
		out = append(out, e.To)
		if len(out) == k {
			break
		}
	}
	return out
}

// NewProbabilityGraph builds Griffioen & Appleton's probability graph:
// window-based successor counts with uniform (non-decremented) credit and a
// minimum-chance cutoff.
func NewProbabilityGraph(window int, minChance float64) Predictor {
	if window <= 0 {
		window = 2
	}
	return &graphPredictor{
		name:    "ProbGraph",
		g:       graph.New(graph.Config{Window: window, Decrement: 0, MaxSuccessors: 64}),
		minFreq: minChance,
	}
}

// Nexus is the paper's main baseline (Gu et al.): a weighted-graph metadata
// prefetcher using linear decremented assignment within a lookahead window
// and aggressive top-k prefetching.
type Nexus struct {
	graphPredictor
}

// NexusConfig parameterises Nexus.
type NexusConfig struct {
	Window    int     // lookahead window; Nexus' default is 3
	Decrement float64 // LDA step; 0.1
	MinFreq   float64 // prediction floor; Nexus prefetches aggressively, so ~0
}

// DefaultNexusConfig returns the published Nexus parameters. The small
// frequency floor drops one-off noise edges, without which the aggressive
// top-k policy floods the cache with never-repeated successors.
func DefaultNexusConfig() NexusConfig {
	return NexusConfig{Window: 3, Decrement: 0.1, MinFreq: 0.15}
}

// NewNexus builds a Nexus predictor.
func NewNexus(cfg NexusConfig) *Nexus {
	if cfg.Window <= 0 {
		cfg.Window = 3
	}
	if cfg.Decrement <= 0 {
		cfg.Decrement = 0.1
	}
	return &Nexus{graphPredictor{
		name:    "Nexus",
		g:       graph.New(graph.Config{Window: cfg.Window, Decrement: cfg.Decrement, MaxSuccessors: 64}),
		minFreq: cfg.MinFreq,
	}}
}

// ------------------------------------------------- conditioned successors

// scoped keys per-stream state by an attribute of the access, implementing
// PBS (program-based successors) and PULS (program- and user-based last
// successor): the successor relation is learned within each attribute
// stream, which removes cross-stream interleaving noise.
type scoped struct {
	name string
	key  func(*trace.Record) uint64
	last map[uint64]trace.FileID               // per-stream previous file
	succ map[trace.FileID]map[trace.FileID]int // successor counts
}

func newScoped(name string, key func(*trace.Record) uint64) *scoped {
	return &scoped{
		name: name,
		key:  key,
		last: make(map[uint64]trace.FileID),
		succ: make(map[trace.FileID]map[trace.FileID]int),
	}
}

// NewPBS returns the Program-Based Successor predictor.
func NewPBS() Predictor {
	return newScoped("PBS", func(r *trace.Record) uint64 { return uint64(r.PID) })
}

// NewPULS returns the Program- and User-based Last Successor predictor.
func NewPULS() Predictor {
	return newScoped("PULS", func(r *trace.Record) uint64 {
		return uint64(r.UID)<<32 | uint64(r.PID)
	})
}

// Name implements Predictor.
func (p *scoped) Name() string { return p.name }

// Record implements Predictor.
func (p *scoped) Record(r *trace.Record) {
	k := p.key(r)
	if prev, ok := p.last[k]; ok && prev != r.File {
		m := p.succ[prev]
		if m == nil {
			m = make(map[trace.FileID]int, 2)
			p.succ[prev] = m
		}
		m[r.File]++
	}
	p.last[k] = r.File
}

// Predict implements Predictor.
func (p *scoped) Predict(f trace.FileID, k int) []trace.FileID {
	if k < 1 {
		return nil
	}
	m := p.succ[f]
	if len(m) == 0 {
		return nil
	}
	type cand struct {
		f trace.FileID
		n int
	}
	cands := make([]cand, 0, len(m))
	for s, n := range m {
		cands = append(cands, cand{s, n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].f < cands[j].f
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]trace.FileID, len(cands))
	for i, c := range cands {
		out[i] = c.f
	}
	return out
}

// ------------------------------------------------------------------ FARMER

// Miner is the mining surface FPA drives: the single-lock core.Model and
// the FileID-striped core.ShardedModel both satisfy it, so a multi-worker
// MDS can swap in the sharded miner without touching the prefetch path.
type Miner interface {
	Feed(r *trace.Record)
	Predict(f trace.FileID, k int) []trace.FileID
	Stats() core.Stats
}

// FPA adapts a FARMER miner to the Predictor interface — the
// FARMER-enabled Prefetching Algorithm of §4.1/§5.
type FPA struct {
	m Miner
}

// NewFPA wraps a FARMER miner (core.Model or core.ShardedModel).
func NewFPA(m Miner) *FPA { return &FPA{m: m} }

// Miner exposes the underlying FARMER miner (for stats).
func (p *FPA) Miner() Miner { return p.m }

// Name implements Predictor.
func (p *FPA) Name() string { return "FARMER" }

// Record implements Predictor.
func (p *FPA) Record(r *trace.Record) { p.m.Feed(r) }

// Predict implements Predictor.
func (p *FPA) Predict(f trace.FileID, k int) []trace.FileID { return p.m.Predict(f, k) }

// None is the no-prefetch policy (plain LRU caching in the simulator).
type None struct{}

// NewNone returns the no-op predictor.
func NewNone() None { return None{} }

// Name implements Predictor.
func (None) Name() string { return "LRU" }

// Record implements Predictor.
func (None) Record(*trace.Record) {}

// Predict implements Predictor.
func (None) Predict(trace.FileID, int) []trace.FileID { return nil }
