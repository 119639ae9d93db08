package exp

import (
	"strings"
	"testing"

	"farmer/internal/replay"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
)

// traceFor regenerates one paper trace at the test scale (generators are
// deterministic, so this matches the sweep's own copy).
func traceFor(t *testing.T, name string) *trace.Trace {
	t.Helper()
	p, ok := tracegen.ByName(name, smallOpt().Records)
	if !ok {
		t.Fatalf("unknown trace %q", name)
	}
	return p.MustGenerate()
}

func TestSyncVsAsyncSweep(t *testing.T) {
	rows := SyncVsAsync(smallOpt())
	if len(rows) != 12 { // 4 traces × {baseline, sync, async}
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byTrace := map[string]map[string]AsyncRow{}
	for _, r := range rows {
		if byTrace[r.Trace] == nil {
			byTrace[r.Trace] = map[string]AsyncRow{}
		}
		byTrace[r.Trace][r.Pipeline] = r
	}
	for name, runs := range byTrace {
		sync, async, base := runs["sync"], runs["async"], runs["baseline"]
		if sync.Fingerprint == 0 || sync.Fingerprint != async.Fingerprint {
			t.Fatalf("%s: sync fp %x vs async fp %x", name, sync.Fingerprint, async.Fingerprint)
		}
		if async.AvgDemandWait > base.AvgDemandWait {
			t.Fatalf("%s: async demand wait %v exceeds baseline %v",
				name, async.AvgDemandWait, base.AvgDemandWait)
		}
		if async.AvgResponse >= sync.AvgResponse {
			t.Fatalf("%s: async response %v not better than mining-heavy sync %v",
				name, async.AvgResponse, sync.AvgResponse)
		}
	}
	// Cross-check one trace against the sequential single-lock reference.
	hp := byTrace["HP"]["sync"]
	if ref := fingerprintReference(traceFor(t, "HP"), 0); hp.Fingerprint != ref {
		t.Fatalf("HP sync fingerprint %x, sequential reference %x", hp.Fingerprint, ref)
	}
	out := AsyncLatency(rows).String()
	for _, col := range []string{"Pipeline", "DemandWait", "PfDropped", "async"} {
		if !strings.Contains(out, col) {
			t.Fatalf("rendered table missing %q:\n%s", col, out)
		}
	}
}

// fingerprintReference recomputes the sequential single-lock fingerprint
// for a trace — the exp tests cross-check SyncVsAsync rows against it.
func fingerprintReference(tr *trace.Trace, shards int) uint64 {
	mc := farmerConfig(tr, 0.7, 0.4)
	mc.Shards = shards
	return replay.MineSequential(tr, mc)
}
