package exp

import (
	"farmer/internal/core"
	"farmer/internal/eval"
	"farmer/internal/predictors"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// MiningQuality scores every predictor's mined successor sets against the
// workload ground truth (precision / recall / F1 at k = 4) on all four
// traces. This quantifies the paper's core claim — "FARMER can mine and
// evaluate file correlations more accurately and effectively" — without the
// cache in the loop.
func MiningQuality(opt Options) *Table {
	opt = opt.withDefaults()
	traces := genTraces(opt.Records)
	mk := func(tr *trace.Trace) []predictors.Predictor {
		cfg := core.DefaultConfig()
		cfg.Mask = vsm.DefaultMask(tr.HasPaths)
		return []predictors.Predictor{
			predictors.NewFPA(core.New(cfg)),
			predictors.NewNexus(predictors.DefaultNexusConfig()),
			predictors.NewProbabilityGraph(2, 0.1),
			predictors.NewLastSuccessor(),
			predictors.NewPBS(),
			predictors.NewPULS(),
		}
	}
	type cell struct{ q eval.Quality }
	results := make(map[string]map[string]cell) // trace -> policy -> quality
	var names []string
	jobs := []func(){}
	for _, tr := range traces {
		tr := tr
		results[tr.Name] = make(map[string]cell)
		ps := mk(tr)
		if names == nil {
			for _, p := range ps {
				names = append(names, p.Name())
			}
		}
		for _, p := range ps {
			p := p
			jobs = append(jobs, func() {
				q := eval.Score(tr, p, 4)
				results[tr.Name][p.Name()] = cell{q}
			})
		}
	}
	// One job per (trace, policy); results map is pre-populated per trace so
	// concurrent writes touch distinct inner maps... inner maps are shared
	// per trace — serialise by running one trace's jobs in sequence instead.
	// Simpler: bound to 1 writer per inner map via per-trace grouping.
	grouped := make([]func(), 0, len(traces))
	idx := 0
	perTrace := len(names)
	for range traces {
		lo, hi := idx, idx+perTrace
		idx = hi
		batch := jobs[lo:hi]
		grouped = append(grouped, func() {
			for _, j := range batch {
				j()
			}
		})
	}
	parallel(opt.Parallelism, grouped)

	tab := newTable("Trace", "Policy", "Precision", "Recall", "F1")
	for _, tr := range traces {
		for _, name := range names {
			q := results[tr.Name][name].q
			tab.addRow(tr.Name, name, q.Precision, q.Recall, q.F1)
		}
	}
	return tab
}
