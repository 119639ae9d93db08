package security

import (
	"testing"

	"farmer/internal/core"
	"farmer/internal/graph"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// chainModel mines a deterministic strong chain 0 -> 1 -> 2 so propagation
// paths are predictable.
func chainModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxStrength = 0.1
	cfg.Graph = graph.Config{Window: 1}
	m := core.New(cfg)
	paths := []string{"/d/x0", "/d/x1", "/d/x2"}
	for i := 0; i < 10; i++ {
		for _, f := range []trace.FileID{0, 1, 2} {
			m.Feed(&trace.Record{File: f, UID: 1, PID: 1, Host: 1, Path: paths[f]})
		}
		m.ResetWindow()
	}
	// Degrees along the chain: sim = (3 scalars + path 1/2)/4 = 0.875,
	// F = 1.0 -> R = 0.7*0.875 + 0.3 = 0.9125 < 1.
	return m
}

func TestManagerValidation(t *testing.T) {
	m := chainModel(t)
	if _, err := NewManager(nil, DefaultConfig()); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewManager(m, Config{MinStrength: 0}); err == nil {
		t.Fatal("zero MinStrength accepted")
	}
	if _, err := NewManager(m, Config{MinStrength: 0.5, MaxHops: -1}); err == nil {
		t.Fatal("negative MaxHops accepted")
	}
}

func TestInstallPropagatesOneHop(t *testing.T) {
	m := chainModel(t)
	mgr, err := NewManager(m, Config{MinStrength: 0.5, MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	reached := mgr.Install(0, Rule{Principal: 7, Action: ActionRead, Effect: Deny})
	if len(reached) == 0 {
		t.Fatal("rule did not propagate")
	}
	if mgr.Allowed(0, 7, ActionRead) {
		t.Fatal("direct deny ignored")
	}
	if mgr.Allowed(reached[0], 7, ActionRead) {
		t.Fatal("propagated deny ignored")
	}
	// Other principals and actions stay open.
	if !mgr.Allowed(0, 8, ActionRead) || !mgr.Allowed(0, 7, ActionWrite) {
		t.Fatal("deny leaked to other principal/action")
	}
}

func TestPropagationRespectsMaxHops(t *testing.T) {
	m := chainModel(t)
	// Degrees 0->1 and 1->2 are ~0.93; two hops product ~0.87.
	one, _ := NewManager(m, Config{MinStrength: 0.5, MaxHops: 1})
	two, _ := NewManager(m, Config{MinStrength: 0.5, MaxHops: 2})
	r1 := one.Install(0, Rule{Principal: 1, Action: ActionWrite, Effect: Deny})
	r2 := two.Install(0, Rule{Principal: 1, Action: ActionWrite, Effect: Deny})
	if len(r2) <= len(r1) {
		t.Fatalf("2-hop propagation (%d files) not wider than 1-hop (%d)", len(r2), len(r1))
	}
}

func TestPropagationRespectsMinStrength(t *testing.T) {
	m := chainModel(t)
	strict, _ := NewManager(m, Config{MinStrength: 0.999, MaxHops: 3})
	reached := strict.Install(0, Rule{Principal: 1, Action: ActionRead, Effect: Deny})
	if len(reached) != 0 {
		t.Fatalf("near-1 threshold still propagated: %v", reached)
	}
}

func TestPropagatedMarkedAndWeaker(t *testing.T) {
	m := chainModel(t)
	mgr, _ := NewManager(m, DefaultConfig())
	reached := mgr.Install(0, Rule{Principal: 3, Action: ActionRead, Effect: Allow})
	if len(reached) == 0 {
		t.Fatal("no propagation")
	}
	direct := mgr.rules[0]
	if len(direct) != 1 || direct[0].Propagated || direct[0].Strength != 1.0 {
		t.Fatalf("direct rule wrong: %+v", direct)
	}
	prop := mgr.rules[reached[0]]
	if len(prop) != 1 || !prop[0].Propagated || prop[0].Strength >= 1.0 {
		t.Fatalf("propagated rule wrong: %+v", prop)
	}
}

func TestDirectRuleDominatesPropagated(t *testing.T) {
	m := chainModel(t)
	mgr, _ := NewManager(m, DefaultConfig())
	mgr.Install(0, Rule{Principal: 5, Action: ActionRead, Effect: Deny}) // propagates to 1
	mgr.Install(1, Rule{Principal: 5, Action: ActionRead, Effect: Deny}) // direct install on 1
	for _, r := range mgr.rules[1] {
		if r.Principal == 5 && r.Propagated {
			t.Fatal("direct rule did not replace propagated duplicate")
		}
	}
}

func TestSecureDeleteSetClosure(t *testing.T) {
	m := chainModel(t)
	mgr, _ := NewManager(m, Config{MinStrength: 0.5, MaxHops: 2})
	set := mgr.SecureDeleteSet(0)
	if len(set) < 3 {
		t.Fatalf("delete set %v should cover the chain", set)
	}
	if set[0] != 0 {
		t.Fatalf("delete set must include the root: %v", set)
	}
}

func TestOnRealWorkload(t *testing.T) {
	tr := tracegen.HP(8000).MustGenerate()
	cfg := core.DefaultConfig()
	cfg.Mask = vsm.DefaultMask(true)
	model := core.New(cfg)
	model.FeedTrace(tr)
	mgr, err := NewManager(model, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Install on the file with the longest list and check propagation hit
	// correlated files.
	var hot trace.FileID
	best := 0
	for f := 0; f < tr.FileCount; f++ {
		if n := len(model.CorrelatorList(trace.FileID(f))); n > best {
			hot, best = trace.FileID(f), n
		}
	}
	if best == 0 {
		t.Skip("no correlations mined")
	}
	reached := mgr.Install(hot, Rule{Principal: 1, Action: ActionDelete, Effect: Deny})
	if len(reached) == 0 {
		t.Fatal("no propagation on real workload")
	}
	for _, f := range reached {
		if mgr.Allowed(f, 1, ActionDelete) {
			t.Fatalf("propagated deny not enforced on %d", f)
		}
	}
}
