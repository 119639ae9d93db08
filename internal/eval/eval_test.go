package eval

import (
	"testing"

	"farmer/internal/core"
	"farmer/internal/predictors"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

func fpaFor(t *trace.Trace) predictors.Predictor {
	cfg := core.DefaultConfig()
	cfg.Mask = vsm.DefaultMask(t.HasPaths)
	return predictors.NewFPA(core.New(cfg))
}

func TestScorePerfectOracle(t *testing.T) {
	tr := tracegen.HP(6000).MustGenerate()
	truth := tracegen.GroundTruth(tr)
	oracle := oraclePredictor{truth: truth}
	q := ScoreMined(tr, oracle, 4)
	if q.Precision < 0.999 {
		t.Fatalf("oracle precision = %v", q.Precision)
	}
	if q.Recall < 0.999 {
		t.Fatalf("oracle recall = %v", q.Recall)
	}
	if q.F1 < 0.999 {
		t.Fatalf("oracle F1 = %v", q.F1)
	}
}

// oraclePredictor answers straight from ground truth (upper bound).
type oraclePredictor struct {
	truth map[trace.FileID][]trace.FileID
}

func (oraclePredictor) Name() string         { return "oracle" }
func (oraclePredictor) Record(*trace.Record) {}
func (o oraclePredictor) Predict(f trace.FileID, k int) []trace.FileID {
	var out []trace.FileID
	for _, m := range o.truth[f] {
		if m != f {
			out = append(out, m)
		}
		if len(out) == k {
			break
		}
	}
	return out
}

func TestScoreSilentPredictorIsZero(t *testing.T) {
	tr := tracegen.HP(4000).MustGenerate()
	q := Score(tr, predictors.NewNone(), 4)
	if q.Recall != 0 || q.F1 != 0 {
		t.Fatalf("silent predictor scored: %+v", q)
	}
	if q.Files == 0 {
		t.Fatal("silent predictor skipped scoring entirely")
	}
}

// TestFARMERMoreAccurateThanNexus is the paper's core claim as a unit test:
// FARMER's mined successors match ground truth better than Nexus' on every
// workload profile.
func TestFARMERMoreAccurateThanNexus(t *testing.T) {
	for _, p := range tracegen.Profiles(15000) {
		tr := p.MustGenerate()
		fq := Score(tr, fpaFor(tr), 4)
		nq := Score(tr, predictors.NewNexus(predictors.DefaultNexusConfig()), 4)
		if fq.F1 <= nq.F1 {
			t.Errorf("%s: FARMER F1 %.3f <= Nexus F1 %.3f", p.Name, fq.F1, nq.F1)
		}
		if fq.Precision <= nq.Precision {
			t.Errorf("%s: FARMER precision %.3f <= Nexus precision %.3f", p.Name, fq.Precision, nq.Precision)
		}
	}
}

// TestFARMERMoreAccurateThanSequenceOnlyBaselines extends the comparison to
// the older sequence-only predictors the paper cites.
func TestFARMERMoreAccurateThanSequenceOnlyBaselines(t *testing.T) {
	tr := tracegen.HP(15000).MustGenerate()
	fq := Score(tr, fpaFor(tr), 4)
	baselines := []predictors.Predictor{
		predictors.NewLastSuccessor(),
		predictors.NewProbabilityGraph(2, 0.1),
	}
	for _, b := range baselines {
		bq := Score(tr, b, 4)
		if fq.F1 <= bq.F1 {
			t.Errorf("FARMER F1 %.3f <= %s F1 %.3f", fq.F1, b.Name(), bq.F1)
		}
	}
}

func TestQualityStringAndCounts(t *testing.T) {
	tr := tracegen.INS(5000).MustGenerate()
	q := Score(tr, fpaFor(tr), 4)
	if q.Files == 0 || q.TruthPerFile <= 0 {
		t.Fatalf("degenerate quality: %+v", q)
	}
	if s := q.String(); s == "" {
		t.Fatal("empty String")
	}
	if q.Precision < 0 || q.Precision > 1 || q.Recall < 0 || q.Recall > 1 {
		t.Fatalf("metrics out of range: %+v", q)
	}
}

func TestEmptyTrace(t *testing.T) {
	q := ScoreMined(&trace.Trace{}, predictors.NewNone(), 4)
	if q.Files != 0 || q.F1 != 0 {
		t.Fatalf("empty trace scored: %+v", q)
	}
}
