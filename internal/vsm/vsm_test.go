package vsm

import (
	"bytes"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"farmer/internal/bin"
	"farmer/internal/trace"
)

// PathSimilarity is the component-wise similarity of two paths used by IPA
// (Sim's path term, read alone):
// |components(A) ∩ components(B)| / max component count, counting multiset
// intersection. The paper's Table 2 example: /home/user1/paper/a vs
// /home/user1/paper/b -> 3/4 = 0.75.
func PathSimilarity(a, b string) float64 {
	return share(pathIntersect(&Vector{Path: a}, &Vector{Path: b}, false))
}

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
		if m == 0 {
			t.Fatal("empty combination emitted")
		}
	}
	// Sizes must be non-decreasing (paper's table orders singletons first).
	for i := 1; i < len(combos); i++ {
		if bits.OnesCount8(uint8(combos[i])) < bits.OnesCount8(uint8(combos[i-1])) {
			t.Fatalf("combinations not ordered by size at %d", i)
		}
	}
}

func TestExtractor(t *testing.T) {
	r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Dev: 2, Path: "/home/u7/f"}
	e := NewExtractor(AllPathMask)
	v := e.Extract(&r)
	if got := items(&v); !slices.Equal(got, []string{"u:7", "p:42", "h:3"}) || v.Scalars != nil {
		t.Fatalf("scalars = %v (strings %v), want the values of user, process, host", got, v.Scalars)
	}
	if v.Path != "/home/u7/f" {
		t.Fatalf("path = %q", v.Path)
	}
	e2 := NewExtractor(MaskOf(AttrFileID, AttrDevice))
	v2 := e2.Extract(&r)
	if !slices.Equal(items(&v2), []string{"f:11", "d:2"}) || v2.Path != "" {
		t.Fatalf("file-id extraction wrong: %+v", v2)
	}
	all := NewExtractor(MaskOf(AttrUser, AttrProcess, AttrHost, AttrFileID, AttrDevice, AttrPath))
	if n := testing.AllocsPerRun(10, func() { v = all.Extract(&r) }); n != 0 {
		t.Errorf("Extract allocates %v times, want 0", n)
	}
	if v := NewExtractor(0).Extract(&r); v.NumScalars() != 0 {
		t.Error("an empty mask produced scalar items")
	}
}

// TestVectorRoundTrip: a token list exactly as Extract writes one decodes to
// the values Extract would hold; any other keeps its strings; both re-encode
// to the bytes they came from.
func TestVectorRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		scalars []string
		values  bool
	}{
		{nil, true},
		{[]string{"u:7"}, true},
		{[]string{"u:0", "p:42", "h:3", "f:11", "d:2"}, true},
		{[]string{"p:4294967295", "d:0"}, true},
		{[]string{"u:012"}, false},
		{[]string{"u:7", "u:7"}, false},
		{[]string{"h:2", "u:7"}, false},
		{[]string{"x:1"}, false},
		{[]string{"u:"}, false},
		{[]string{"u:-1"}, false},
		{[]string{"u:+1"}, false},
		{[]string{"u:4294967296"}, false},
		{[]string{"u:1", "p:2 "}, false},
		{[]string{"U:1"}, false},
		{[]string{""}, false},
		{[]string{"user1", "p1", "host1"}, false},
	} {
		for _, path := range []string{"", "/a/b"} {
			raw := AppendVector(nil, &Vector{Scalars: tc.scalars, Path: path})
			c := bin.Read("vector", raw)
			v := ReadVector(&c)
			if err := c.Done(); err != nil {
				t.Fatalf("%q: %v", tc.scalars, err)
			}
			if (v.Scalars == nil) != tc.values || !slices.Equal(items(&v), tc.scalars) || v.Path != path {
				t.Errorf("%q %q decoded to strings %q, items %q, path %q; want values=%v", tc.scalars, path, v.Scalars, items(&v), v.Path, tc.values)
			}
			if again := AppendVector(nil, &v); !bytes.Equal(again, raw) {
				t.Errorf("%q %q re-encodes as %x, want %x", tc.scalars, path, again, raw)
			}
		}
	}
	// A canonical list decodes to the very vector Extract builds, once cut.
	r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Dev: 2, Path: "/home/u7/f"}
	x := NewExtractor(MaskOf(AttrUser, AttrHost, AttrDevice, AttrPath)).Extract(&r)
	c := bin.Read("vector", AppendVector(nil, &x))
	v := ReadVector(&c)
	v.Presplit()
	if !reflect.DeepEqual(v, x) {
		t.Errorf("decoded %+v, extracted %+v", v, x)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(10, func() { buf = AppendVector(buf[:0], &x) }); n != 0 {
		t.Errorf("AppendVector into a buffer with room allocates %v times, want 0", n)
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

// TestExtractCutsThePathOnce: what Extract caches is where the path's
// components end — inside the vector, so a record allocates nothing —
// exactly what Presplit caches in a decoded copy; and a vector it built
// compares as the same vector written out by hand.
func TestExtractCutsThePathOnce(t *testing.T) {
	for _, mask := range []Mask{AllPathMask, MaskOf(AttrPath), AllFileIDMask} {
		e := NewExtractor(mask)
		other := Vector{Scalars: []string{"u:7", "p:1", "h:3"}, Path: "/home/u7/g"}
		for _, p := range []string{"/home/u7/f", "home//u7/f/", "/", "//", "", "f", "/a/a"} {
			r := trace.Record{UID: 7, PID: 42, Host: 3, File: 11, Path: p}
			var v Vector
			if n := testing.AllocsPerRun(10, func() { v = e.Extract(&r) }); n != 0 {
				t.Errorf("mask %v path %q: Extract allocates %v times, want 0", mask, p, n)
			}
			if want := SplitPath(v.Path); !slices.Equal(v.components(nil, 0), want) || int(v.cut) != len(want) {
				t.Errorf("mask %v path %q: cached ends %v of %d, components %q, want %q", mask, p, v.ends, v.cut, v.components(nil, 0), want)
			}
			literal := Vector{Scalars: items(&v), Path: v.Path}
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
	if size := unsafe.Sizeof(Vector{}); size > 104 {
		t.Errorf("a Vector is %d bytes, want at most 104: every tracked file stores one", size)
	}
	e := NewExtractor(AllPathMask)
	for _, tc := range []struct {
		path   string
		cached bool
	}{{hostile, false}, {deepest + "/a", false}, {long, false}, {deepest, true}, {long[3:], true}} {
		v := e.Extract(&trace.Record{UID: 1, Path: tc.path})
		d := Vector{Scalars: items(&v), Path: tc.path}
		d.Presplit()
		if cutOf(&v) != cutOf(&d) || (v.cut != 0) != tc.cached {
			t.Fatalf("%d-byte path: Extract cached %v, Presplit %v, want cached=%v", len(tc.path), cutOf(&v), cutOf(&d), tc.cached)
		}
		literal := Vector{Scalars: items(&v), Path: tc.path}
		for _, other := range []*Vector{&v, &literal, &tabA, {Scalars: items(&v), Path: "/a/b"}} {
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
