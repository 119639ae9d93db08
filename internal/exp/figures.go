package exp

import (
	"fmt"

	"farmer/internal/core"
	"farmer/internal/hust"
	"farmer/internal/metrics"
	"farmer/internal/sim"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// Fig1 reproduces Figure 1: the probability of inter-file access when the
// successor statistic is conditioned on different semantic attributes, for
// all four traces. Higher probability under an attribute means that
// attribute exposes stronger sequential regularity.
func Fig1(opt Options) *metrics.Table {
	opt = opt.withDefaults()
	traces := genTraces(opt.Records)
	type cond struct {
		name string
		key  trace.AttrKey
		need bool // requires paths
	}
	conds := []cond{
		{"none", trace.KeyNone, false},
		{"uid", trace.KeyUID, false},
		{"pid", trace.KeyPID, false},
		{"host", trace.KeyHost, false},
		{"dir", trace.KeyDir, true},
		{"uid+pid", trace.KeyUIDPID, false},
	}
	tab := metrics.NewTable("Attribute", "LLNL", "INS", "RES", "HP")
	rows := make([][]string, len(conds))
	jobs := []func(){}
	for ci, c := range conds {
		ci, c := ci, c
		jobs = append(jobs, func() {
			row := make([]string, len(traces))
			for ti, tr := range traces {
				if c.need && !tr.HasPaths {
					row[ti] = "n/a"
					continue
				}
				p := trace.SuccessorProbability(tr, c.key)
				row[ti] = fmt.Sprintf("%.3f", p)
			}
			rows[ci] = row
		})
	}
	parallel(opt.Parallelism, jobs)
	for ci, c := range conds {
		tab.AddRow(c.name, rows[ci][0], rows[ci][1], rows[ci][2], rows[ci][3])
	}
	return tab
}

// Table2 reproduces the paper's Table 2 worked example of DPA vs IPA on the
// three semantic vectors of Table 1.
func Table2() *metrics.Table {
	a := vsm.Vector{Scalars: []string{"user1", "p1", "host1"}, Path: "/home/user1/paper/a"}
	b := vsm.Vector{Scalars: []string{"user1", "p2", "host1"}, Path: "/home/user1/paper/b"}
	c := vsm.Vector{Scalars: []string{"user2", "p3", "host2"}, Path: "/home/user2/c"}
	tab := metrics.NewTable("Pair", "DPA", "IPA")
	pairs := []struct {
		name string
		x, y *vsm.Vector
	}{{"sim(A,B)", &a, &b}, {"sim(A,C)", &a, &c}, {"sim(B,C)", &b, &c}}
	for _, p := range pairs {
		tab.AddRow(p.name, vsm.Sim(p.x, p.y, vsm.DPA), vsm.Sim(p.x, p.y, vsm.IPA))
	}
	return tab
}

// Fig3 reproduces Figure 3: cache hit ratio as a function of max_strength
// for weight p in {0, 0.3, 0.7, 1}, for the named trace ("" = all four; one
// table per trace is concatenated by the caller via Fig3All).
func Fig3(opt Options, traceName string) *metrics.Table {
	opt = opt.withDefaults()
	prof, ok := tracegen.ByName(traceName, opt.Records)
	if !ok {
		panic(fmt.Sprintf("exp: unknown trace %q", traceName))
	}
	tr := prof.MustGenerate()
	weights := []float64{0, 0.3, 0.7, 1}
	strengths := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	results := make([][]float64, len(weights))
	jobs := []func(){}
	for wi, w := range weights {
		results[wi] = make([]float64, len(strengths))
		for si, s := range strengths {
			wi, si, w, s := wi, si, w, s
			jobs = append(jobs, func() {
				mc := farmerConfig(tr, w, s)
				results[wi][si] = replayLone(tr, opt.Replay, farmerFactory(opt.Replay.MDS, mc, opt.Shards)).HitRatio
			})
		}
	}
	parallel(opt.Parallelism, jobs)
	header := []string{"max_strength"}
	for _, w := range weights {
		header = append(header, fmt.Sprintf("p=%.1f", w))
	}
	tab := metrics.NewTable(header...)
	for si, s := range strengths {
		cells := []interface{}{fmt.Sprintf("%.1f", s)}
		for wi := range weights {
			cells = append(cells, results[wi][si])
		}
		tab.AddRow(cells...)
	}
	return tab
}

// Fig5 reproduces Figure 5 (the attribute-combination table): cache hit
// ratios for all 15 combinations of four attributes, for HP (path schema)
// and INS/RES (file-id schema).
func Fig5(opt Options) *metrics.Table {
	opt = opt.withDefaults()
	hp := tracegen.HP(opt.Records).MustGenerate()
	ins := tracegen.INS(opt.Records).MustGenerate()
	res := tracegen.RES(opt.Records).MustGenerate()

	pathAttrs := []vsm.Attr{vsm.AttrUser, vsm.AttrProcess, vsm.AttrHost, vsm.AttrPath}
	fidAttrs := []vsm.Attr{vsm.AttrUser, vsm.AttrProcess, vsm.AttrHost, vsm.AttrFileID}
	pathCombos := vsm.Combinations(pathAttrs)
	fidCombos := vsm.Combinations(fidAttrs)

	hitRatio := func(tr *trace.Trace, mask vsm.Mask) float64 {
		mc := core.DefaultConfig()
		mc.Mask = mask
		return replayLone(tr, opt.Replay, farmerFactory(opt.Replay.MDS, mc, opt.Shards)).HitRatio
	}

	hpRatios := make([]float64, len(pathCombos))
	insRatios := make([]float64, len(fidCombos))
	resRatios := make([]float64, len(fidCombos))
	jobs := []func(){}
	for i := range pathCombos {
		i := i
		jobs = append(jobs, func() { hpRatios[i] = hitRatio(hp, pathCombos[i]) })
		jobs = append(jobs, func() { insRatios[i] = hitRatio(ins, fidCombos[i]) })
		jobs = append(jobs, func() { resRatios[i] = hitRatio(res, fidCombos[i]) })
	}
	parallel(opt.Parallelism, jobs)

	tab := metrics.NewTable("HP Combination", "HP", "INS/RES Combination", "INS", "RES")
	for i := range pathCombos {
		tab.AddRow(pathCombos[i].String(), hpRatios[i], fidCombos[i].String(), insRatios[i], resRatios[i])
	}
	return tab
}

// Fig6 reproduces Figure 6: average MDS response time versus max_strength on
// the HP trace.
func Fig6(opt Options) *metrics.Table {
	opt = opt.withDefaults()
	tr := tracegen.HP(opt.Records).MustGenerate()
	strengths := []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	resp := make([]float64, len(strengths))
	jobs := []func(){}
	for i, s := range strengths {
		i, s := i, s
		jobs = append(jobs, func() {
			mc := farmerConfig(tr, 0.7, s)
			r := replayLone(tr, opt.Replay, farmerFactory(opt.Replay.MDS, mc, opt.Shards))
			resp[i] = float64(r.AvgResponse.Microseconds()) / 1000
		})
	}
	parallel(opt.Parallelism, jobs)
	tab := metrics.NewTable("max_strength", "AvgResponse(ms)")
	for i, s := range strengths {
		tab.AddRow(fmt.Sprintf("%.1f", s), fmt.Sprintf("%.3f", resp[i]))
	}
	return tab
}

// PolicyRun holds one (trace, policy) replay outcome, shared by Fig7/Fig8/
// Table3.
type PolicyRun struct {
	Trace    string
	Policy   string
	HitRatio float64
	Accuracy float64
	AvgResp  float64 // milliseconds
}

// ComparePolicies replays every trace under FPA, Nexus and LRU. It is the
// data source for Fig. 7, Fig. 8 and Table 3.
func ComparePolicies(opt Options) []PolicyRun {
	opt = opt.withDefaults()
	traces := genTraces(opt.Records)
	type job struct {
		tr      *trace.Trace
		policy  string
		factory func(*sim.Engine) (*hust.MDS, error)
	}
	var jobsSpec []job
	for _, tr := range traces {
		mc := farmerConfig(tr, 0.7, 0.4)
		jobsSpec = append(jobsSpec,
			job{tr, "FARMER", farmerFactory(opt.Replay.MDS, mc, opt.Shards)},
			job{tr, "Nexus", nexusFactory(opt.Replay.MDS)},
			job{tr, "LRU", lruFactory(opt.Replay.MDS)},
		)
	}
	out := make([]PolicyRun, len(jobsSpec))
	jobs := make([]func(), len(jobsSpec))
	for i, js := range jobsSpec {
		i, js := i, js
		jobs[i] = func() {
			res := replayLone(js.tr, opt.Replay, js.factory)
			out[i] = PolicyRun{
				Trace:    js.tr.Name,
				Policy:   js.policy,
				HitRatio: res.HitRatio,
				Accuracy: res.PerServer[0].Cache.PrefetchAccuracy(),
				AvgResp:  float64(res.AvgResponse.Microseconds()) / 1000,
			}
		}
	}
	parallel(opt.Parallelism, jobs)
	return out
}

// Fig7 renders the hit-ratio comparison (FPA vs Nexus vs LRU, four traces).
func Fig7(runs []PolicyRun) *metrics.Table {
	tab := metrics.NewTable("Trace", "FARMER", "Nexus", "LRU")
	addTracePolicyRows(tab, runs, func(r PolicyRun) float64 { return r.HitRatio })
	return tab
}

// Fig8 renders the average-response-time comparison in milliseconds.
func Fig8(runs []PolicyRun) *metrics.Table {
	tab := metrics.NewTable("Trace", "FARMER(ms)", "Nexus(ms)", "LRU(ms)")
	addTracePolicyRows(tab, runs, func(r PolicyRun) float64 { return r.AvgResp })
	return tab
}

// Table3 renders prefetching accuracy on the HP trace (paper: FARMER 64.04%,
// Nexus 43.04%).
func Table3(runs []PolicyRun) *metrics.Table {
	tab := metrics.NewTable("Trace", "Prefetching Accuracy")
	for _, r := range runs {
		if r.Trace == "HP" && r.Policy != "LRU" {
			tab.AddRow(r.Policy, fmt.Sprintf("%.2f%%", r.Accuracy*100))
		}
	}
	return tab
}

func addTracePolicyRows(tab *metrics.Table, runs []PolicyRun, get func(PolicyRun) float64) {
	order := []string{"LLNL", "INS", "RES", "HP"}
	policies := []string{"FARMER", "Nexus", "LRU"}
	for _, tr := range order {
		cells := []interface{}{tr}
		for _, p := range policies {
			for _, r := range runs {
				if r.Trace == tr && r.Policy == p {
					cells = append(cells, get(r))
				}
			}
		}
		if len(cells) == len(policies)+1 {
			tab.AddRow(cells...)
		}
	}
}

// Table4 reproduces the space-overhead table: FARMER correlation-state
// footprint per trace at max_strength 0.4.
func Table4(opt Options) *metrics.Table {
	opt = opt.withDefaults()
	traces := genTraces(opt.Records)
	sizes := make([]float64, len(traces))
	correl := make([]int, len(traces))
	jobs := make([]func(), len(traces))
	for i, tr := range traces {
		i, tr := i, tr
		jobs[i] = func() {
			m := core.New(farmerConfig(tr, 0.7, 0.4))
			m.FeedTrace(tr)
			st := m.Stats()
			sizes[i] = float64(st.MemoryBytes) / (1 << 20)
			correl[i] = st.Correlators
		}
	}
	parallel(opt.Parallelism, jobs)
	tab := metrics.NewTable("Trace", "Space (MB)", "Correlators")
	for i, tr := range traces {
		tab.AddRow(tr.Name, fmt.Sprintf("%.2f", sizes[i]), correl[i])
	}
	return tab
}

// AblationFootprint compares FARMER's filtered state against an unfiltered
// graph predictor's state on the same trace (§3.3's efficiency claim).
func AblationFootprint(opt Options, traceName string) *metrics.Table {
	opt = opt.withDefaults()
	prof, ok := tracegen.ByName(traceName, opt.Records)
	if !ok {
		panic(fmt.Sprintf("exp: unknown trace %q", traceName))
	}
	tr := prof.MustGenerate()

	farmer := core.New(farmerConfig(tr, 0.7, 0.4))
	farmer.FeedTrace(tr)
	fs := farmer.Stats()

	unfiltered := core.New(farmerConfig(tr, 0.7, 0.0))
	unfiltered.FeedTrace(tr)
	us := unfiltered.Stats()

	tab := metrics.NewTable("Model", "Correlators", "Memory (MB)")
	tab.AddRow("FARMER (max_strength=0.4)", fs.Correlators, fmt.Sprintf("%.2f", float64(fs.MemoryBytes)/(1<<20)))
	tab.AddRow("FARMER (unfiltered)", us.Correlators, fmt.Sprintf("%.2f", float64(us.MemoryBytes)/(1<<20)))
	return tab
}
