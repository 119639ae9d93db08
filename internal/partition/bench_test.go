package partition

import (
	"testing"

	"farmer/internal/graph"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// BenchmarkDispatch measures the serial fraction of a partitioned ingest —
// Stage 1 and the window replay, events counted and dropped — both ways in:
// Dispatch, which gives every record a vector of its own because its events
// may be kept (one allocation a record; what bench/'s partition.dispatch row
// and hust's mailboxes call), and DispatchInto over a scratch, as
// core.ShardedModel feeds.
func BenchmarkDispatch(b *testing.B) {
	tr := tracegen.HP(50000).MustGenerate()
	owned := 0
	count := func(owner int, _ Event) { owned += owner }
	vecs := make([]vsm.Vector, 1024)
	for _, bc := range []struct {
		name string
		run  func(d *Dispatcher, i int)
	}{
		{"fresh", func(d *Dispatcher, i int) { d.Dispatch(&tr.Records[i%len(tr.Records)], count) }},
		{"into", func(d *Dispatcher, i int) { d.DispatchInto(&tr.Records[i%len(tr.Records)], &vecs[i%len(vecs)], count) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d := NewDispatcher(Config{Owners: 2, Mask: vsm.AllPathMask, PathAlg: vsm.IPA, Graph: graph.DefaultConfig()})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run(d, i)
			}
		})
	}
}
