package predictors

import (
	"math/rand/v2"
	"testing"

	"farmer/internal/core"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

func rec(f trace.FileID, pid, uid uint32) *trace.Record {
	return &trace.Record{File: f, PID: pid, UID: uid}
}

func feedSeq(p Predictor, files ...trace.FileID) {
	for _, f := range files {
		p.Record(rec(f, 1, 1))
	}
}

func TestLastSuccessor(t *testing.T) {
	p := NewLastSuccessor()
	feedSeq(p, 0, 1, 0, 2)
	got := p.Predict(0, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("LS should predict most recent successor 2, got %v", got)
	}
	if p.Predict(9, 1) != nil {
		t.Fatal("unknown file predicted")
	}
	if p.Predict(0, 0) != nil {
		t.Fatal("k=0 returned candidates")
	}
}

func TestLastSuccessorIgnoresSelfRepeat(t *testing.T) {
	p := NewLastSuccessor()
	feedSeq(p, 0, 0, 1)
	if got := p.Predict(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("self-repeat broke LS: %v", got)
	}
}

func TestNexusRanksByLDAWeight(t *testing.T) {
	p := NewNexus(DefaultNexusConfig())
	// 0,1,2 repeatedly: edge 0->1 gets 1.0 per round, 0->2 gets 0.9.
	for i := 0; i < 5; i++ {
		feedSeq(p, 0, 1, 2)
	}
	got := p.Predict(0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Nexus ranking = %v, want [1 2]", got)
	}
}

func TestNexusMinFreqFloor(t *testing.T) {
	cfg := DefaultNexusConfig()
	cfg.MinFreq = 0.9
	p := NewNexus(cfg)
	feedSeq(p, 0, 1, 0, 2) // F(0,1)=0.5, F(0,2)=0.5 < 0.9
	if got := p.Predict(0, 4); got != nil {
		t.Fatalf("floor not applied: %v", got)
	}
}

func TestProbabilityGraphCutoff(t *testing.T) {
	p := NewProbabilityGraph(1, 0.4)
	// successors of 0: 1 x3, 2 x1 -> chances 0.75 / 0.25.
	feedSeq(p, 0, 1, 0, 1, 0, 1, 0, 2)
	got := p.Predict(0, 4)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("ProbGraph = %v, want [1]", got)
	}
}

// TestPBSSeparatesPrograms: interleaved programs must not pollute each
// other's successor tables.
func TestPBSSeparatesPrograms(t *testing.T) {
	p := NewPBS()
	// Program 1: 0 -> 1. Program 2: 5 -> 6. Interleaved globally.
	for i := 0; i < 4; i++ {
		p.Record(rec(0, 1, 1))
		p.Record(rec(5, 2, 2))
		p.Record(rec(1, 1, 1))
		p.Record(rec(6, 2, 2))
	}
	if got := p.Predict(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PBS Predict(0) = %v, want [1]", got)
	}
	if got := p.Predict(5, 1); len(got) != 1 || got[0] != 6 {
		t.Fatalf("PBS Predict(5) = %v, want [6]", got)
	}
}

// TestPULSSeparatesUserProgramPairs: same program id under different users
// must be distinct streams for PULS but merged for PBS.
func TestPULSSeparatesUserProgramPairs(t *testing.T) {
	puls := NewPULS()
	pbs := NewPBS()
	feed := func(p Predictor) {
		for i := 0; i < 4; i++ {
			p.Record(rec(0, 7, 1))  // user 1 running program 7: 0 -> 1
			p.Record(rec(10, 7, 2)) // user 2, same program: 10 -> 11
			p.Record(rec(1, 7, 1))
			p.Record(rec(11, 7, 2))
		}
	}
	feed(puls)
	feed(pbs)
	if got := puls.Predict(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PULS Predict(0) = %v, want [1]", got)
	}
	// PBS merges the two users into one program stream, where user 2's file
	// 10 always directly follows 0 — PBS learns the wrong successor, which
	// is exactly why PULS adds the user condition.
	got := pbs.Predict(0, 1)
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("PBS merged stream should mislearn successor 10, got %v", got)
	}
}

func TestFPAAdapter(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxStrength = 0.0
	m := core.New(cfg)
	p := NewFPA(m)
	if p.Name() != "FARMER" {
		t.Fatal("name")
	}
	for i := 0; i < 6; i++ {
		p.Record(&trace.Record{File: 0, UID: 1, PID: 1, Path: "/d/a"})
		p.Record(&trace.Record{File: 1, UID: 1, PID: 1, Path: "/d/b"})
	}
	if got := p.Predict(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FPA Predict = %v, want [1]", got)
	}
	if p.Miner() != Miner(m) {
		t.Fatal("Miner accessor broken")
	}
}

func TestNonePredictor(t *testing.T) {
	p := NewNone()
	p.Record(rec(0, 1, 1))
	if p.Predict(0, 4) != nil {
		t.Fatal("None predicted something")
	}
	if p.Name() != "LRU" {
		t.Fatal("None should present as LRU in tables")
	}
}

// TestAllPredictorsRunOnRealWorkload smoke-tests every policy on a generated
// trace: no panics, sane outputs, deterministic predictions.
func TestAllPredictorsRunOnRealWorkload(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	make := func() []Predictor {
		cfg := core.DefaultConfig()
		return []Predictor{
			NewLastSuccessor(),
			NewProbabilityGraph(2, 0.1),
			NewNexus(DefaultNexusConfig()),
			NewPBS(),
			NewPULS(),
			NewFPA(core.New(cfg)),
			NewNone(),
		}
	}
	ps := make()
	for i := range tr.Records {
		for _, p := range ps {
			p.Record(&tr.Records[i])
		}
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for _, p := range ps {
		for i := 0; i < 50; i++ {
			f := trace.FileID(rng.IntN(tr.FileCount))
			got := p.Predict(f, 4)
			if len(got) > 4 {
				t.Fatalf("%s returned %d > k candidates", p.Name(), len(got))
			}
			for _, s := range got {
				if s == f {
					t.Fatalf("%s predicted the file itself", p.Name())
				}
			}
		}
	}
	// Determinism: two identical runs agree.
	ps2 := make()
	for i := range tr.Records {
		for _, p := range ps2 {
			p.Record(&tr.Records[i])
		}
	}
	for i := range ps {
		for f := trace.FileID(0); f < 100; f++ {
			a := ps[i].Predict(f, 3)
			b := ps2[i].Predict(f, 3)
			if len(a) != len(b) {
				t.Fatalf("%s nondeterministic", ps[i].Name())
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s nondeterministic at file %d", ps[i].Name(), f)
				}
			}
		}
	}
}
