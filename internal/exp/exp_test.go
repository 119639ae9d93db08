package exp

import (
	"strings"
	"testing"
)

// smallOpt keeps experiment tests fast; the benchmarks run full scale.
func smallOpt() Options { return Options{Records: 6000} }

// rows counts a rendered table's data rows: its lines less the header and
// the rule under it.
func rows(tab interface{ String() string }) int { return strings.Count(tab.String(), "\n") - 2 }

func TestFig1ShapesHold(t *testing.T) {
	tab := Fig1(smallOpt())
	out := tab.String()
	if !strings.Contains(out, "uid+pid") || !strings.Contains(out, "none") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if rows(tab) != 6 {
		t.Fatalf("rows = %d, want 6", rows(tab))
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	out := Table2().String()
	// DPA column: 5/7 = 0.7143, 1/7 = 0.1429; IPA: 2.75/4 = 0.6875,
	// 0.25/4 = 0.0625 — the paper's exact Table 2 values.
	for _, want := range []string{"0.7143", "0.1429", "0.6875", "0.0625"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %s:\n%s", want, out)
		}
	}
}

func TestFig3RunsAndHasSweep(t *testing.T) {
	tab := Fig3(smallOpt(), "HP")
	if rows(tab) != 7 { // strengths 0.2..0.8
		t.Fatalf("rows = %d", rows(tab))
	}
	out := tab.String()
	if !strings.Contains(out, "p=0.7") {
		t.Fatalf("missing weight column:\n%s", out)
	}
}

func TestFig3UnknownTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown trace accepted")
		}
	}()
	Fig3(smallOpt(), "NFS")
}

func TestFig5Has15Combinations(t *testing.T) {
	tab := Fig5(smallOpt())
	if rows(tab) != 15 {
		t.Fatalf("rows = %d, want 15", rows(tab))
	}
	out := tab.String()
	if !strings.Contains(out, "{User, Process, Host, File Path}") {
		t.Fatalf("missing full combination:\n%s", out)
	}
}

func TestFig6Sweep(t *testing.T) {
	tab := Fig6(smallOpt())
	if rows(tab) != 11 {
		t.Fatalf("rows = %d, want 11", rows(tab))
	}
}

func TestComparePoliciesOrdering(t *testing.T) {
	runs := ComparePolicies(Options{Records: 12000})
	if len(runs) != 12 { // 4 traces x 3 policies
		t.Fatalf("runs = %d", len(runs))
	}
	get := func(tr, pol string) PolicyRun {
		for _, r := range runs {
			if r.Trace == tr && r.Policy == pol {
				return r
			}
		}
		t.Fatalf("missing run %s/%s", tr, pol)
		return PolicyRun{}
	}
	for _, tr := range []string{"LLNL", "INS", "RES", "HP"} {
		f, n, l := get(tr, "FARMER"), get(tr, "Nexus"), get(tr, "LRU")
		// The paper's headline ordering (Fig. 7): FPA >= Nexus >= LRU on
		// hit ratio. Allow tiny slack for the small test workload.
		if f.HitRatio < n.HitRatio-0.01 || f.HitRatio < l.HitRatio-0.01 {
			t.Errorf("%s: FARMER hit %.3f not best (Nexus %.3f LRU %.3f)", tr, f.HitRatio, n.HitRatio, l.HitRatio)
		}
		// Response-time ordering (Fig. 8): FPA fastest.
		if f.AvgResp > n.AvgResp+0.05 || f.AvgResp > l.AvgResp+0.05 {
			t.Errorf("%s: FARMER resp %.3f not best (Nexus %.3f LRU %.3f)", tr, f.AvgResp, n.AvgResp, l.AvgResp)
		}
	}
	// Table 3 shape: FARMER accuracy clearly above Nexus on HP.
	if f, n := get("HP", "FARMER"), get("HP", "Nexus"); f.Accuracy <= n.Accuracy {
		t.Errorf("HP accuracy: FARMER %.3f <= Nexus %.3f", f.Accuracy, n.Accuracy)
	}
}

func TestFigureRenderers(t *testing.T) {
	runs := []PolicyRun{
		{Trace: "HP", Policy: "FARMER", HitRatio: 0.55, Accuracy: 0.64, AvgResp: 0.9},
		{Trace: "HP", Policy: "Nexus", HitRatio: 0.45, Accuracy: 0.43, AvgResp: 1.1},
		{Trace: "HP", Policy: "LRU", HitRatio: 0.40, AvgResp: 1.2},
	}
	if out := Fig7(runs).String(); !strings.Contains(out, "0.5500") {
		t.Fatalf("Fig7 render:\n%s", out)
	}
	if out := Fig8(runs).String(); !strings.Contains(out, "0.9000") {
		t.Fatalf("Fig8 render:\n%s", out)
	}
	out := Table3(runs).String()
	if !strings.Contains(out, "64.00%") || strings.Contains(out, "LRU") {
		t.Fatalf("Table3 render:\n%s", out)
	}
}

func TestTable4SpaceBounded(t *testing.T) {
	tab := Table4(smallOpt())
	if rows(tab) != 4 {
		t.Fatalf("rows = %d", rows(tab))
	}
}

func TestAblationFootprintFilteringWins(t *testing.T) {
	tab := AblationFootprint(smallOpt(), "HP")
	out := tab.String()
	if !strings.Contains(out, "max_strength=0.4") || !strings.Contains(out, "unfiltered") {
		t.Fatalf("ablation table:\n%s", out)
	}
}

func TestMiningQualityTable(t *testing.T) {
	tab := MiningQuality(Options{Records: 8000})
	if rows(tab) != 24 { // 4 traces x 6 policies
		t.Fatalf("rows = %d, want 24", rows(tab))
	}
	out := tab.String()
	if !strings.Contains(out, "FARMER") || !strings.Contains(out, "Nexus") {
		t.Fatalf("missing policies:\n%s", out)
	}
}
