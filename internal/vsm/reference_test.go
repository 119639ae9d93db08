package vsm

import (
	"math"
	"strings"
	"testing"
)

// The map-and-Split similarity this package shipped before the mining core
// went allocation-free, kept as the oracle the in-place walk is held to: the
// two must agree to the last bit, or a store mined by one build would not
// continue bit-identically under the other.

// SplitPath splits a slash path into its components: "/home/u/a" ->
// ["home", "u", "a"]. Empty components are dropped.
func SplitPath(p string) []string {
	parts := strings.Split(p, "/")
	out := parts[:0]
	for _, c := range parts {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func refMultisetIntersection(a, b []string) int {
	counts := make(map[string]int, len(a))
	for _, x := range a {
		counts[x]++
	}
	n := 0
	for _, x := range b {
		if counts[x] > 0 {
			counts[x]--
			n++
		}
	}
	return n
}

func refPathSimilarity(a, b string) float64 {
	if a == "" || b == "" {
		return 0
	}
	ca := SplitPath(a)
	cb := SplitPath(b)
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	return float64(refMultisetIntersection(ca, cb)) / float64(max(len(ca), len(cb)))
}

func refLen(v *Vector, alg PathAlg) int {
	switch {
	case v.Path == "":
		return len(v.Scalars)
	case alg == DPA:
		return len(v.Scalars) + len(SplitPath(v.Path))
	default:
		return len(v.Scalars) + 1
	}
}

func refSim(a, b *Vector, alg PathAlg) float64 {
	la, lb := refLen(a, alg), refLen(b, alg)
	if la == 0 || lb == 0 {
		return 0
	}
	var inter float64
	switch alg {
	case DPA:
		itemsA := append(append([]string(nil), a.Scalars...), SplitPath(a.Path)...)
		itemsB := append(append([]string(nil), b.Scalars...), SplitPath(b.Path)...)
		inter = float64(refMultisetIntersection(itemsA, itemsB))
	default: // IPA
		inter = float64(refMultisetIntersection(a.Scalars, b.Scalars))
		if a.Path != "" && b.Path != "" {
			inter += refPathSimilarity(a.Path, b.Path)
		}
	}
	s := inter / float64(max(la, lb))
	if s > 1 {
		s = 1
	}
	return s
}

// checkSimMatchesReference compares every similarity entry point with its
// oracle on one pair of vectors, in both argument orders.
func checkSimMatchesReference(t *testing.T, a, b *Vector) {
	t.Helper()
	for _, alg := range []PathAlg{IPA, DPA} {
		for _, p := range [][2]*Vector{{a, b}, {b, a}} {
			got, want := Sim(p[0], p[1], alg), refSim(p[0], p[1], alg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Sim(%+v, %+v, %v) = %v, reference %v", *p[0], *p[1], alg, got, want)
			}
		}
		if got, want := a.Len(alg), refLen(a, alg); got != want {
			t.Errorf("(%+v).Len(%v) = %d, reference %d", *a, alg, got, want)
		}
	}
	got, want := PathSimilarity(a.Path, b.Path), refPathSimilarity(a.Path, b.Path)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("PathSimilarity(%q, %q) = %v, reference %v", a.Path, b.Path, got, want)
	}
}

// fuzzScalars turns a fuzz string into scalar tokens, one per comma; an
// empty string is a vector with no scalars at all.
func fuzzScalars(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func FuzzSimMatchesReference(f *testing.F) {
	deep := strings.Repeat("/d", 70) // spills the stack scratch
	for _, seed := range [][4]string{
		{"u:1,p:3,h:2", "/home/user1/paper/a", "u:1,p:4,h:2", "/home/user1/paper/b"},
		{"", "a/a/b", "", "a/b/a"},         // duplicate components, different order
		{"x,x,y", "", "x,x,x", ""},         // duplicate scalars, no paths
		{"u:1", "//", "u:1", "/"},          // paths with no components at all
		{"u:1", "//a//b/", "u:2", "a/b//"}, // empty components
		{"u:1", "", "u:1", "/a/b"},         // one side path-less
		{"", "", "", ""},                   // empty vectors
		{"a,b", deep + "/x", "b,a", deep},  // > 64 components
		{"d,d", deep, "d", "/d"},           // a scalar equal to a component
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, sa, pa, sb, pb string) {
		a := Vector{Scalars: fuzzScalars(sa), Path: pa}
		b := Vector{Scalars: fuzzScalars(sb), Path: pb}
		checkSimMatchesReference(t, &a, &b)
	})
}
