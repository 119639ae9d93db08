package vsm

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"farmer/internal/trace"
)

// The paper's Table 1/2 worked example:
//
//	A = user1 p1 host1 /home/user1/paper/a
//	B = user1 p2 host1 /home/user1/paper/b
//	C = user2 p3 host2 /home/user2/c
var (
	tabA = Vector{Scalars: []string{"user1", "p1", "host1"}, Path: "/home/user1/paper/a"}
	tabB = Vector{Scalars: []string{"user1", "p2", "host1"}, Path: "/home/user1/paper/b"}
	tabC = Vector{Scalars: []string{"user2", "p3", "host2"}, Path: "/home/user2/c"}
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestPaperTable2DPA checks the DPA column of Table 2:
// sim(A,B)=5/7, sim(A,C)=1/7, sim(B,C)=1/7.
func TestPaperTable2DPA(t *testing.T) {
	if got := Sim(&tabA, &tabB, DPA); !almost(got, 5.0/7.0) {
		t.Errorf("DPA sim(A,B) = %v, want 5/7", got)
	}
	if got := Sim(&tabA, &tabC, DPA); !almost(got, 1.0/7.0) {
		t.Errorf("DPA sim(A,C) = %v, want 1/7", got)
	}
	if got := Sim(&tabB, &tabC, DPA); !almost(got, 1.0/7.0) {
		t.Errorf("DPA sim(B,C) = %v, want 1/7", got)
	}
}

// TestPaperTable2IPA checks the IPA column of Table 2:
// sim(A,B)=2.75/4, sim(A,C)=0.25/4, sim(B,C)=0.25/4.
//
// Paths /home/user1/paper/a vs /home/user1/paper/b share 3 of max 4
// components -> path item contributes 0.75; user1+host1 match -> 2; total
// 2.75 over max vector length 4.
func TestPaperTable2IPA(t *testing.T) {
	if got := Sim(&tabA, &tabB, IPA); !almost(got, 2.75/4.0) {
		t.Errorf("IPA sim(A,B) = %v, want 2.75/4", got)
	}
	if got := Sim(&tabA, &tabC, IPA); !almost(got, 0.25/4.0) {
		t.Errorf("IPA sim(A,C) = %v, want 0.25/4", got)
	}
	if got := Sim(&tabB, &tabC, IPA); !almost(got, 0.25/4.0) {
		t.Errorf("IPA sim(B,C) = %v, want 0.25/4", got)
	}
}

// TestPaperPathSimilarity checks the intermediate 3/4 directory similarity
// quoted in §3.2.1.
func TestPaperPathSimilarity(t *testing.T) {
	if got := PathSimilarity("/home/user1/paper/a", "/home/user1/paper/b"); !almost(got, 0.75) {
		t.Errorf("PathSimilarity = %v, want 0.75", got)
	}
}

// TestIPADeepDirectoryRobustness reproduces the paper's argument for IPA: an
// executable and the library it links share user+process but have disjoint
// deep paths. DPA drowns the scalar match; IPA preserves it.
func TestIPADeepDirectoryRobustness(t *testing.T) {
	exe := Vector{Scalars: []string{"u:1", "p:9"}, Path: "/home/alice/projects/app/build/bin/app"}
	lib := Vector{Scalars: []string{"u:1", "p:9"}, Path: "/usr/lib/x86_64/libm.so"}
	dpa := Sim(&exe, &lib, DPA)
	ipa := Sim(&exe, &lib, IPA)
	if ipa <= dpa {
		t.Fatalf("IPA (%v) should exceed DPA (%v) for disjoint deep paths", ipa, dpa)
	}
	// IPA: 2 scalar matches, 0 path sim, max len 3 -> 2/3.
	if !almost(ipa, 2.0/3.0) {
		t.Fatalf("IPA = %v, want 2/3", ipa)
	}
}

func TestSimIdentity(t *testing.T) {
	if got := Sim(&tabA, &tabA, IPA); !almost(got, 1.0) {
		t.Errorf("IPA self-sim = %v, want 1", got)
	}
	if got := Sim(&tabA, &tabA, DPA); !almost(got, 1.0) {
		t.Errorf("DPA self-sim = %v, want 1", got)
	}
}

func TestSimEmpty(t *testing.T) {
	empty := Vector{}
	if got := Sim(&empty, &tabA, IPA); got != 0 {
		t.Errorf("sim(empty, A) = %v, want 0", got)
	}
	if got := Sim(&empty, &empty, DPA); got != 0 {
		t.Errorf("sim(empty, empty) = %v, want 0", got)
	}
}

func TestSimPathOnlyVectors(t *testing.T) {
	a := Vector{Path: "/a/b/c"}
	b := Vector{Path: "/a/b/d"}
	// IPA: single path item, similarity 2/3 -> sim = (2/3)/1.
	if got := Sim(&a, &b, IPA); !almost(got, 2.0/3.0) {
		t.Errorf("IPA path-only = %v, want 2/3", got)
	}
	// DPA: items {a,b,c} vs {a,b,d} -> 2/3.
	if got := Sim(&a, &b, DPA); !almost(got, 2.0/3.0) {
		t.Errorf("DPA path-only = %v, want 2/3", got)
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"/home/u/a", 3},
		{"home/u/a", 3},
		{"//double//slash/", 2},
		{"/", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := SplitPath(c.in); len(got) != c.want {
			t.Errorf("SplitPath(%q) = %v, want %d parts", c.in, got, c.want)
		}
		// The in-place walk yields the same components without splitting.
		var walked []string
		for comp, rest := nextComponent(c.in); comp != ""; comp, rest = nextComponent(rest) {
			walked = append(walked, comp)
		}
		if !slices.Equal(walked, SplitPath(c.in)) {
			t.Errorf("nextComponent walk of %q = %v, want %v", c.in, walked, SplitPath(c.in))
		}
	}
}

func TestMultisetIntersectionCountsDuplicates(t *testing.T) {
	a := []string{"x", "x", "y"}
	b := []string{"x", "x", "x"}
	if got, la, lb := multisetIntersection(a, "", b, ""); got != 2 || la != 3 || lb != 3 {
		t.Fatalf("multiset intersection = %d of %d and %d items, want 2 of 3 and 3", got, la, lb)
	}
	if got := refMultisetIntersection(a, b); got != 2 {
		t.Fatalf("reference multiset intersection = %d, want 2", got)
	}
}

// Property: Sim is symmetric and within [0,1] under both algorithms.
func TestSimProperties(t *testing.T) {
	f := func(sa, sb []uint8, pa, pb bool) bool {
		mk := func(tokens []uint8, withPath bool, path string) Vector {
			v := Vector{}
			for _, tok := range tokens {
				v.Scalars = append(v.Scalars, "t:"+string(rune('a'+tok%16)))
			}
			if withPath {
				v.Path = path
			}
			return v
		}
		a := mk(sa, pa, "/x/y/z")
		b := mk(sb, pb, "/x/q/z")
		for _, alg := range []PathAlg{IPA, DPA} {
			s1 := Sim(&a, &b, alg)
			s2 := Sim(&b, &a, alg)
			if math.Abs(s1-s2) > 1e-12 {
				return false
			}
			if s1 < 0 || s1 > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskOps(t *testing.T) {
	m := MaskOf(AttrUser, AttrPath)
	if !m.Has(AttrUser) || !m.Has(AttrPath) || m.Has(AttrProcess) {
		t.Fatalf("mask membership wrong: %v", m)
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if got := m.Without(AttrUser); got.Has(AttrUser) {
		t.Fatal("Without failed")
	}
	if got := m.String(); got != "{User, File Path}" {
		t.Fatalf("String = %q", got)
	}
	if got := Mask(0).String(); got != "{}" {
		t.Fatalf("empty mask String = %q", got)
	}
}

func TestCombinations(t *testing.T) {
	attrs := []Attr{AttrUser, AttrProcess, AttrHost, AttrPath}
	combos := Combinations(attrs)
	if len(combos) != 15 {
		t.Fatalf("4 attributes should give 15 combinations, got %d", len(combos))
	}
	seen := map[Mask]bool{}
	for _, m := range combos {
		if seen[m] {
			t.Fatalf("duplicate combination %v", m)
		}
		seen[m] = true
		if m.Count() == 0 {
			t.Fatal("empty combination emitted")
		}
	}
	// Sizes must be non-decreasing (paper's table orders singletons first).
	for i := 1; i < len(combos); i++ {
		if combos[i].Count() < combos[i-1].Count() {
			t.Fatalf("combinations not ordered by size at %d", i)
		}
	}
}

func TestExtractor(t *testing.T) {
	r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Dev: 2, Path: "/home/u7/f"}
	e := NewExtractor(AllPathMask)
	v := e.Extract(&r)
	if len(v.Scalars) != 3 {
		t.Fatalf("scalars = %v, want 3 items (user, process, host)", v.Scalars)
	}
	if v.Path != "/home/u7/f" {
		t.Fatalf("path = %q", v.Path)
	}
	e2 := NewExtractor(MaskOf(AttrFileID, AttrDevice))
	v2 := e2.Extract(&r)
	if len(v2.Scalars) != 2 || v2.Path != "" {
		t.Fatalf("file-id extraction wrong: %+v", v2)
	}
}

// similarity extracts both records' vectors and compares them under the
// extractor's path algorithm.
func similarity(e *Extractor, a, b *trace.Record) float64 {
	va, vb := e.Extract(a), e.Extract(b)
	return Sim(&va, &vb, e.Alg)
}

func TestExtractorNamespacing(t *testing.T) {
	// User 5 must not collide with process 5.
	a := trace.Record{UID: 5, PID: 1}
	b := trace.Record{UID: 1, PID: 5}
	e := NewExtractor(MaskOf(AttrUser, AttrProcess))
	if got := similarity(e, &a, &b); got != 0 {
		t.Fatalf("cross-attribute collision: sim = %v, want 0", got)
	}
}

func TestExtractorSimilarityFullMatch(t *testing.T) {
	a := trace.Record{UID: 5, PID: 9, Host: 2, Path: "/h/u/f"}
	e := NewExtractor(AllPathMask)
	if got := similarity(e, &a, &a); !almost(got, 1) {
		t.Fatalf("self similarity = %v, want 1", got)
	}
}

func TestDefaultMask(t *testing.T) {
	if DefaultMask(true) != AllPathMask {
		t.Fatal("DefaultMask(true) != AllPathMask")
	}
	if DefaultMask(false) != AllFileIDMask {
		t.Fatal("DefaultMask(false) != AllFileIDMask")
	}
}

func TestVectorLen(t *testing.T) {
	v := Vector{Scalars: []string{"a", "b"}, Path: "/x/y/z"}
	if got := v.Len(IPA); got != 3 {
		t.Fatalf("IPA len = %d, want 3", got)
	}
	if got := v.Len(DPA); got != 5 {
		t.Fatalf("DPA len = %d, want 5", got)
	}
	noPath := Vector{Scalars: []string{"a"}}
	if got := noPath.Len(DPA); got != 1 {
		t.Fatalf("no-path DPA len = %d, want 1", got)
	}
}

func TestPathAlgString(t *testing.T) {
	if IPA.String() != "IPA" || DPA.String() != "DPA" {
		t.Fatal("PathAlg String wrong")
	}
}

// TestExtractorTokenTable: interning changes where a token's bytes live,
// never what they are — with a warm table, past its bound and after Reset
// the vector is the one a fresh extractor builds.
func TestExtractorTokenTable(t *testing.T) {
	all := MaskOf(AttrUser, AttrProcess, AttrHost, AttrFileID, AttrDevice)
	r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Dev: 2}
	want := []string{"u:7", "p:42", "h:3", "f:11", "d:2"}
	e := NewExtractor(all)
	first, second := e.Extract(&r), e.Extract(&r)
	if !slices.Equal(first.Scalars, want) || !slices.Equal(second.Scalars, want) {
		t.Fatalf("scalars = %v then %v, want %v", first.Scalars, second.Scalars, want)
	}
	if unsafe.StringData(first.Scalars[0]) != unsafe.StringData(second.Scalars[0]) {
		t.Error("the second extraction built a new token instead of reusing the interned one")
	}
	if NewExtractor(0).Extract(&r).Scalars != nil {
		t.Error("an empty mask produced a non-nil scalar slice")
	}

	// More distinct file ids than the table holds: every token still right,
	// the table no larger than its bound.
	ids := NewExtractor(MaskOf(AttrFileID))
	for f := 0; f < maxTokens+100; f++ {
		v := ids.Extract(&trace.Record{File: trace.FileID(f)})
		if want := "f:" + strconv.Itoa(f); len(v.Scalars) != 1 || v.Scalars[0] != want {
			t.Fatalf("file %d: scalars = %v, want [%s]", f, v.Scalars, want)
		}
	}
	if len(ids.tokens) != maxTokens {
		t.Errorf("table holds %d tokens, want the bound %d", len(ids.tokens), maxTokens)
	}
	ids.Reset()
	if len(ids.tokens) != 0 {
		t.Errorf("Reset left %d tokens", len(ids.tokens))
	}
	if v := ids.Extract(&trace.Record{File: 5}); !slices.Equal(v.Scalars, []string{"f:5"}) {
		t.Errorf("after Reset: scalars = %v", v.Scalars)
	}
}

// TestExtractorListTable pins the interned scalar lists: records that agree
// on every enabled value share one backing array nobody can append into, the
// table stops at its bound, Reset forgets it without disturbing a vector
// already out, and a mask with the file id — every file its own list — keeps
// no table at all.
func TestExtractorListTable(t *testing.T) {
	e := NewExtractor(AllPathMask)
	a := e.Extract(&trace.Record{UID: 7, PID: 42, Host: 3, File: 1, Dev: 9, Path: "/home/u7/f"})
	b := e.Extract(&trace.Record{UID: 7, PID: 42, Host: 3, File: 2, Dev: 8, Path: "/home/u7/g"})
	if &a.Scalars[0] != &b.Scalars[0] || cap(a.Scalars) != len(a.Scalars) || len(e.lists) != 1 {
		t.Fatalf("one (user, process, host) built lists %p and %p (cap %d, len %d), table %d", a.Scalars, b.Scalars, cap(a.Scalars), len(a.Scalars), len(e.lists))
	}
	if n := testing.AllocsPerRun(10, func() { e.Extract(&trace.Record{UID: 7, PID: 42, Host: 3, Path: "/x/y"}) }); n != 0 {
		t.Errorf("Extract of an interned tuple allocates %v times, want 0", n)
	}
	if got, want := Sim(&a, &b, IPA), refSim(&Vector{Scalars: a.Scalars, Path: a.Path}, &Vector{Scalars: slices.Clone(b.Scalars), Path: b.Path}, IPA); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Sim of two vectors sharing a list = %v, reference %v", got, want)
	}
	for pid := 0; pid < maxTokens+100; pid++ {
		v := e.Extract(&trace.Record{UID: 1, PID: uint32(pid), Host: 2})
		if want := []string{"u:1", "p:" + strconv.Itoa(pid), "h:2"}; !slices.Equal(v.Scalars, want) || cap(v.Scalars) != 3 {
			t.Fatalf("process %d: scalars = %v (cap %d), want %v", pid, v.Scalars, cap(v.Scalars), want)
		}
	}
	if len(e.lists) != maxTokens {
		t.Errorf("table holds %d lists, want the bound %d", len(e.lists), maxTokens)
	}
	e.Reset()
	if len(e.lists) != 0 {
		t.Errorf("Reset left %d lists", len(e.lists))
	}
	c := e.Extract(&trace.Record{UID: 7, PID: 42, Host: 3, Path: "/home/u7/h"})
	if &c.Scalars[0] == &a.Scalars[0] {
		t.Error("an extraction after Reset reused a forgotten list")
	}
	literal := Vector{Scalars: []string{"u:7", "p:42", "h:3"}, Path: a.Path}
	for _, alg := range []PathAlg{IPA, DPA} {
		if got, want := Sim(&a, &c, alg), refSim(&literal, &c, alg); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: Sim of a vector extracted before Reset = %v, reference %v", alg, got, want)
		}
	}

	ids := NewExtractor(AllFileIDMask)
	x, y := ids.Extract(&trace.Record{UID: 1, PID: 2, Host: 3, File: 4}), ids.Extract(&trace.Record{UID: 1, PID: 2, Host: 3, File: 4})
	if ids.lists != nil || &x.Scalars[0] == &y.Scalars[0] || !slices.Equal(x.Scalars, []string{"u:1", "p:2", "h:3", "f:4"}) {
		t.Errorf("a file-id mask interned %d lists (scalars %v)", len(ids.lists), x.Scalars)
	}
}

// TestExtractCutsThePathOnce: what Extract caches is where the path's
// components end — inside the vector, so a record costs at most the one
// allocation of its scalars — exactly what Presplit caches in a decoded copy;
// and a vector it built compares as the same vector written out by hand.
func TestExtractCutsThePathOnce(t *testing.T) {
	for _, mask := range []Mask{AllPathMask, MaskOf(AttrPath), AllFileIDMask} {
		e := NewExtractor(mask)
		other := Vector{Scalars: []string{"u:7", "p:1", "h:3"}, Path: "/home/u7/g"}
		for _, p := range []string{"/home/u7/f", "home//u7/f/", "/", "//", "", "f", "/a/a"} {
			r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Path: p}
			e.Extract(&r) // intern the tokens
			var v Vector
			if n := testing.AllocsPerRun(10, func() { v = e.Extract(&r) }); n > 1 {
				t.Errorf("mask %v path %q: Extract allocates %v times, want at most 1", mask, p, n)
			}
			if want := SplitPath(v.Path); !slices.Equal(v.components(nil, 0), want) || int(v.cut) != len(want) {
				t.Errorf("mask %v path %q: cached ends %v of %d, components %q, want %q", mask, p, v.ends, v.cut, v.components(nil, 0), want)
			}
			literal := Vector{Scalars: v.Scalars, Path: v.Path}
			decoded := literal
			decoded.Presplit()
			if cutOf(&decoded) != cutOf(&v) {
				t.Errorf("path %q: Presplit cached %v, Extract %v", p, cutOf(&decoded), cutOf(&v))
			}
			for _, alg := range []PathAlg{IPA, DPA} {
				if got, want := Sim(&v, &other, alg), refSim(&literal, &other, alg); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("mask %v path %q %v: Sim of the extracted vector = %v, reference %v", mask, p, alg, got, want)
				}
			}
		}
	}
}

// TestDeepPathCachesNothing: the hostile-input bound. A 1 MiB path of
// two-byte components, cut ahead, would hold 8 MiB of string headers; a
// vector caches offsets for at most MaxCached components of a path a uint16
// can index, inside itself, and Sim cuts anything else per call, to the same
// result.
func TestDeepPathCachesNothing(t *testing.T) {
	hostile := strings.Repeat("a/", trace.MaxPathLen/2)
	deepest := strings.Repeat("/a", MaxCached)
	long := "/" + strings.Repeat("x", math.MaxUint16) + "/a"
	if size := unsafe.Sizeof(Vector{}); size > 80 {
		t.Errorf("a Vector is %d bytes, want at most 80: every tracked file stores one", size)
	}
	e := NewExtractor(AllPathMask)
	for _, tc := range []struct {
		path   string
		cached bool
	}{{hostile, false}, {deepest + "/a", false}, {long, false}, {deepest, true}, {long[3:], true}} {
		v := e.Extract(&trace.Record{UID: 1, Path: tc.path})
		d := Vector{Scalars: v.Scalars, Path: tc.path}
		d.Presplit()
		if cutOf(&v) != cutOf(&d) || (v.cut != 0) != tc.cached {
			t.Fatalf("%d-byte path: Extract cached %v, Presplit %v, want cached=%v", len(tc.path), cutOf(&v), cutOf(&d), tc.cached)
		}
		literal := Vector{Scalars: v.Scalars, Path: tc.path}
		for _, other := range []*Vector{&v, &literal, &tabA, {Scalars: v.Scalars, Path: "/a/b"}} {
			if got, want := Sim(&v, other, IPA), refSim(&literal, other, IPA); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d-byte path against %.20q: Sim = %v, reference %v", len(tc.path), other.Path, got, want)
			}
		}
	}
}

// TestDeepPathsIntersectInLinearTime: past what the stack marks hold the
// multiset intersection is counted through a map — the number the pairwise
// claims gave, to the bit, however the components repeat or overlap — so two
// paths at trace.MaxPathLen cost milliseconds, not the minutes O(n·m) took
// under a shard lock.
func TestDeepPathsIntersectInLinearTime(t *testing.T) {
	numbered := func(from, to int) string {
		var sb strings.Builder
		for i := from; i < to; i++ {
			sb.WriteString("/c" + strconv.Itoa(i))
		}
		return sb.String()
	}
	for _, n := range []int{MaxCached + 1, 25, 300, 2000} {
		as, bs := strings.Repeat("a/", n), strings.Repeat("b/", n)
		for _, p := range [][2]string{
			{as, bs},                               // distinct
			{as, as},                               // equal
			{numbered(0, n), numbered(n/2, n+n/2)}, // half overlapping
			{as + bs, strings.Repeat("a/b/", n/2) + "a"}, // repeated components, unequal counts
			{numbered(0, n), "/c0"},                      // deep against shallow
		} {
			a, b := Vector{Scalars: []string{"u:1", "c0"}, Path: p[0]}, Vector{Scalars: []string{"c0", "a"}, Path: p[1]}
			for _, alg := range []PathAlg{IPA, DPA} {
				if got, want := Sim(&a, &b, alg), refSim(&a, &b, alg); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("n=%d %v %.12q… against %.12q…: Sim = %v, reference %v", n, alg, p[0], p[1], got, want)
				}
			}
		}
	}
	a := Vector{Path: strings.Repeat("a/", trace.MaxPathLen/2)}
	b := Vector{Path: strings.Repeat("b/", trace.MaxPathLen/2)}
	start := time.Now()
	if got := Sim(&a, &b, IPA) + Sim(&a, &a, DPA); got != 1 {
		t.Errorf("sims of the hostile pair sum to %v, want 0 + 1", got)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("two %d-byte paths took %v to compare", trace.MaxPathLen, d)
	}
}
