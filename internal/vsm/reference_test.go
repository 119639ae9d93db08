package vsm

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// The two similarities this package shipped before vectors were pre-split,
// kept as the oracles Sim is held to: all three must agree to the last bit,
// or a store mined by one build would not continue bit-identically under the
// other. First the map-and-Split original; the in-place path walk that
// replaced it follows.

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

// Len reports the number of vector items under the given path algorithm.
// Under DPA the path contributes one item per component; under IPA it
// contributes a single item.
func (v *Vector) Len(alg PathAlg) int {
	n := len(v.Scalars)
	if v.Path == "" {
		return n
	}
	switch alg {
	case DPA:
		for c, rest := nextComponent(v.Path); c != ""; c, rest = nextComponent(rest) {
			n++
		}
		return n
	default: // IPA
		return n + 1
	}
}

// nextComponent returns the first non-empty component of a slash path and
// the unread remainder: "/home/u/a" -> ("home", "/u/a"). Empty components
// are skipped; comp is "" once the path is exhausted.
func nextComponent(p string) (comp, rest string) {
	for len(p) > 0 && p[0] == '/' {
		p = p[1:]
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, ""
}

// multisetIntersection counts the items two vectors share, each side's
// items being its scalars followed by the components of its path ("" for no
// path), and reports how many items each side has. Side B is staged once in
// a scratch list; every item of A then claims — and removes — one equal
// item of B, so a value occurring i times in A and j times in B counts
// min(i, j) times, whatever the order.
func multisetIntersection(sa []string, pa string, sb []string, pb string) (inter, la, lb int) {
	var scratch [32]string
	unclaimed := append(scratch[:0], sb...)
	for c, rest := nextComponent(pb); c != ""; c, rest = nextComponent(rest) {
		unclaimed = append(unclaimed, c)
	}
	lb = len(unclaimed)
	claim := func(x string) {
		la++
		for i, y := range unclaimed {
			if x == y {
				last := len(unclaimed) - 1
				unclaimed[i] = unclaimed[last]
				unclaimed = unclaimed[:last]
				inter++
				return
			}
		}
	}
	for _, x := range sa {
		claim(x)
	}
	for c, rest := nextComponent(pa); c != ""; c, rest = nextComponent(rest) {
		claim(c)
	}
	return inter, la, lb
}

// walkSim is Sim as it walked both paths in place for every pair.
func walkSim(a, b *Vector, alg PathAlg) float64 {
	la, lb := a.Len(alg), b.Len(alg)
	if la == 0 || lb == 0 {
		return 0
	}
	var inter float64
	switch alg {
	case DPA:
		n, _, _ := multisetIntersection(a.Scalars, a.Path, b.Scalars, b.Path)
		inter = float64(n)
	default: // IPA
		n, _, _ := multisetIntersection(a.Scalars, "", b.Scalars, "")
		inter = float64(n)
		if pn, pla, plb := multisetIntersection(nil, a.Path, nil, b.Path); pla != 0 && plb != 0 {
			inter += float64(pn) / float64(max(pla, plb))
		}
	}
	s := inter / float64(max(la, lb))
	if s > 1 {
		s = 1
	}
	return s
}

// cutOf is everything Presplit derives from a path, comparable.
func cutOf(v *Vector) (c struct {
	ends [MaxCached]uint16
	tags [MaxCached]uint8
	n    uint8
}) {
	c.ends, c.tags, c.n = v.ends, v.tags, v.cut
	return c
}

// checkSimMatchesReference compares every similarity entry point with its
// oracles on one pair of vectors, in both argument orders and however the
// operands reach Sim: as written (their paths cut inside the call), cut
// ahead as a stored vector is, and one of each.
func checkSimMatchesReference(t *testing.T, a, b *Vector) {
	t.Helper()
	ca, cb := *a, *b
	ca.Presplit()
	cb.Presplit()
	for _, v := range []*Vector{&ca, &cb} {
		want := SplitPath(v.Path)
		if v.cut != 0 && !slices.Equal(v.components(nil, 0), want) {
			t.Errorf("Presplit(%q) cached ends %v: components %q, want %q", v.Path, v.ends, v.components(nil, 0), want)
		}
		for i := 0; i < int(v.cut); i++ { // a tag is a function of the component's bytes, wherever it sits
			if v.tags[i] != tag(want[i]) {
				t.Errorf("Presplit(%q) tagged component %d %#x, want tag(%q) = %#x", v.Path, i, v.tags[i], want[i], tag(want[i]))
			}
		}
	}
	for _, alg := range []PathAlg{IPA, DPA} {
		for _, p := range [][2]*Vector{{a, b}, {b, a}, {&ca, &cb}, {&cb, &ca}, {&ca, b}, {a, &cb}} {
			got, want, walk := Sim(p[0], p[1], alg), refSim(p[0], p[1], alg), walkSim(p[0], p[1], alg)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(walk) {
				t.Errorf("Sim(%+v, %+v, %v) = %v, reference %v, path walk %v", *p[0], *p[1], alg, got, want, walk)
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

// twinA and twinB differ only in bytes tag does not sample: two components
// the digest cannot tell apart, for the seeds that must reach the byte
// compare behind an equal tag.
const twinA, twinB = "abcdef", "aXcdef"

func TestTagsOfTwinsAgree(t *testing.T) {
	if tag(twinA) != tag(twinB) {
		t.Fatalf("tag(%q) = %#x, tag(%q) = %#x: the fuzz seeds built on them no longer force a byte compare", twinA, tag(twinA), twinB, tag(twinB))
	}
	a, b := Vector{Path: "/x/" + twinA}, Vector{Path: "/x/" + twinB}
	a.Presplit()
	b.Presplit()
	if got := Sim(&a, &b, IPA); got != 0.5 {
		t.Errorf("Sim of cut paths whose last components share a tag and no more = %v, want 0.5", got)
	}
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
		{"u:1", "/a//b", "u:1", "/a/b/"},   // "//" against a trailing "/"
		{"u:1", "///", "", "/"},            // paths of only "/"
		{"", "/a/b/a", "", "/a/a/b"},       // equal at position 0 only; the rest pairs off out of order
		{"b,a", "/a/b", "a", "/b/b/a"},     // scalars equal to components, DPA pairs them across the two
		{"u:1", strings.Repeat("/c", MaxCached+1), "u:1", strings.Repeat("/c", MaxCached-1) + "/x"},                // one past the cache, against the deepest cached
		{"u:1", strings.Repeat("/c", 65), "u:1", strings.Repeat("/c", 64) + "/x"},                                  // 65 and 64 components
		{"x", strings.Repeat("/e", 200), "x", strings.Repeat("/e/f", 100)},                                         // wider than the stack marks
		{"u:1", "/home/" + twinA, "u:1", "/home/" + twinB},                                                         // different components, equal tags
		{"", "/" + twinA + "/" + twinB + "/" + twinA, "", "/" + twinB + "/" + twinA + "/" + twinA},                 // duplicates under one tag, claimed out of order
		{"", "/" + twinA + "/" + twinA + "/" + twinB, "", "/" + twinA + "/" + twinB + "/" + twinB},                 // the head shared, then unequal counts under one tag
		{"u:1", strings.Repeat("/"+twinA, MaxCached), "u:1", strings.Repeat("/"+twinB, MaxCached-1) + "/" + twinA}, // every tag and end equal, one component
		{"u:1", strings.Repeat("/c", MaxCached), "u:2", strings.Repeat("/c", MaxCached+1)},                         // the deepest cut against one too deep to cut
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, sa, pa, sb, pb string) {
		a := Vector{Scalars: fuzzScalars(sa), Path: pa}
		b := Vector{Scalars: fuzzScalars(sb), Path: pb}
		checkSimMatchesReference(t, &a, &b)
	})
}
