package exp

import (
	"farmer/internal/core"
	"farmer/internal/eval"
	"farmer/internal/hust"
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
	type score struct {
		policy string
		q      eval.Quality
	}
	scores := make([][]score, len(traces))
	jobs := make([]func(), len(traces))
	for i, tr := range traces {
		jobs[i] = func() {
			mc := core.DefaultConfig()
			mc.Mask = vsm.DefaultMask(tr.HasPaths)
			for _, policy := range []string{"farmer", "nexus", "probgraph", "ls", "pbs", "puls"} {
				p, err := hust.NewPredictor(policy, mc)
				if err != nil {
					panic(err) // every name above is a policy
				}
				scores[i] = append(scores[i], score{p.Name(), eval.Score(tr, p, 4)})
			}
		}
	}
	parallel(opt.Parallelism, jobs)

	tab := newTable("Trace", "Policy", "Precision", "Recall", "F1")
	for i, tr := range traces {
		for _, s := range scores[i] {
			tab.addRow(tr.Name, s.policy, s.q.Precision, s.q.Recall, s.q.F1)
		}
	}
	return tab
}
