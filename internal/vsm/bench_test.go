package vsm

import (
	"testing"

	"farmer/internal/trace"
)

var benchA = Vector{Scalars: []string{"u:1", "p:3", "h:2"}, Path: "/home/user1/project/src/main.go"}
var benchB = Vector{Scalars: []string{"u:1", "p:4", "h:2"}, Path: "/home/user1/project/src/util.go"}

// extracted returns the benchmark pair as the model stores and compares
// them: built by Extract, their component ends noted once.
func extracted() (a, b Vector) {
	e := NewExtractor(AllPathMask)
	return e.Extract(&trace.Record{UID: 1, PID: 3, Host: 2, Path: benchA.Path}),
		e.Extract(&trace.Record{UID: 1, PID: 4, Host: 2, Path: benchB.Path})
}

var simSink float64

func benchSim(b *testing.B, x, y *Vector, alg PathAlg) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simSink += Sim(x, y, alg)
	}
}

// BenchmarkSimIPA measures the paper's chosen similarity path.
func BenchmarkSimIPA(b *testing.B) {
	x, y := extracted()
	benchSim(b, &x, &y, IPA)
}

// BenchmarkSimDPA measures the divided-path alternative.
func BenchmarkSimDPA(b *testing.B) {
	x, y := extracted()
	benchSim(b, &x, &y, DPA)
}

// BenchmarkSimLiteral measures IPA between vectors nobody cut ahead — what
// a test, a figure or a decoded event compared once pays: two path cuts on
// top of BenchmarkSimIPA.
func BenchmarkSimLiteral(b *testing.B) {
	benchSim(b, &benchA, &benchB, IPA)
}
