// Package vsm implements the Vector Space Model machinery FARMER borrows
// from information retrieval (paper §3.2.1): files are represented as
// semantic vectors of attribute items and compared with the set-overlap
// similarity
//
//	sim(A, B) = |A ∩ B| / max(|A|, |B|)
//
// The file-path attribute gets special treatment. Under the Divided Path
// Algorithm (DPA) every path component is its own vector item; under the
// Integrated Path Algorithm (IPA) — the variant the paper selects — the whole
// path is a single item whose intersection contribution is the fractional
// component-wise similarity of the two paths. IPA prevents deep directories
// from drowning out the other attributes.
package vsm

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"farmer/internal/bin"
)

// Attr identifies one semantic attribute extracted from a file request.
type Attr uint8

// The attributes the paper mines. File path and file id are alternatives:
// HP/LLNL-style traces carry paths, INS/RES-style traces carry file ids plus
// device ids.
const (
	AttrUser Attr = iota
	AttrProcess
	AttrHost
	AttrPath
	AttrFileID
	AttrDevice
	NumAttrs
)

var attrNames = [...]string{"User", "Process", "Host", "File Path", "File ID", "Device"}

// String returns the attribute's display name as used in the paper's tables.
func (a Attr) String() string {
	if int(a) < len(attrNames) {
		return attrNames[a]
	}
	return "Attr?"
}

// Mask is a set of attributes enabled for similarity computation. The
// Fig. 5 experiment sweeps all combinations of four attributes.
type Mask uint8

// Has reports whether the attribute is enabled.
func (m Mask) Has(a Attr) bool { return m&(1<<a) != 0 }

// With returns a copy of the mask with the attribute enabled.
func (m Mask) With(a Attr) Mask { return m | (1 << a) }

// String renders the mask as the paper writes combinations, e.g.
// "{User, Process, File Path}".
func (m Mask) String() string {
	var parts []string
	for a := Attr(0); a < NumAttrs; a++ {
		if m.Has(a) {
			parts = append(parts, a.String())
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// MaskOf builds a mask from attributes.
func MaskOf(attrs ...Attr) Mask {
	var m Mask
	for _, a := range attrs {
		m = m.With(a)
	}
	return m
}

// AllPathMask is the full HP-trace combination {User, Process, Host, File Path}.
var AllPathMask = MaskOf(AttrUser, AttrProcess, AttrHost, AttrPath)

// AllFileIDMask is the full INS/RES combination {User, Process, Host, File ID}.
var AllFileIDMask = MaskOf(AttrUser, AttrProcess, AttrHost, AttrFileID)

// Vector is a file's semantic vector: scalar items (user, process, host, file
// id, device) — (attribute, value) pairs, "u:12" only their spelling — and the
// path, kept apart because DPA and IPA treat it differently. A vector is not
// modified once it is built: Extract and Presplit cut the path beside it, and
// Sim trusts the cut.
type Vector struct {
	// Scalars holds scalar items as strings where they are not values: a
	// literal vector's (the paper's "user1"), or a decoded one's that Extract
	// would not have written. nil on every vector Extract builds.
	Scalars []string
	Path    string // full path, or "" when the trace has no paths

	// vals holds the scalar attributes' values in scalarAttrs order, has which
	// of them the vector has (bit i for vals[i]; the others hold 0).
	vals [len(scalarAttrs)]uint32

	// ends caches where Path's non-empty components end (component i lies
	// between the slashes after ends[i-1] and ends[i]; unused slots hold 0),
	// tags a digest of each and cut their number, so that comparing stored
	// vectors scans no path and reads no bytes a digest tells apart. Derived
	// state, all zero — Sim cuts the path itself — for a literal or decoded
	// vector and a path of no or over MaxCached components or 64 KiB.
	ends [MaxCached]uint16
	tags [MaxCached]uint8
	cut  uint8
	has  uint8
}

// scalarAttrs lists the scalar attributes in vector order with the tags their
// tokens are spelled with.
var scalarAttrs = [...]struct {
	attr Attr
	tag  string
}{{AttrUser, "u:"}, {AttrProcess, "p:"}, {AttrHost, "h:"}, {AttrFileID, "f:"}, {AttrDevice, "d:"}}

// spelling reads a string as a token, the inverse of AppendScalar's
// spelling of a value: ok when it is a tag then canonical decimal below 2³²
// (no sign, no leading zero), the one string that spells that value.
func spelling(s string) (i int, val uint32, ok bool) {
	if len(s) < 3 || s[1] != ':' {
		return 0, 0, false
	}
	for i := range scalarAttrs {
		if s[0] == scalarAttrs[i].tag[0] {
			d := s[2:]
			x, err := strconv.ParseUint(d, 10, 32)
			return i, uint32(x), err == nil && (d[0] != '0' || len(d) == 1)
		}
	}
	return 0, 0, false
}

// NumScalars counts the vector's scalar items.
func (v *Vector) NumScalars() int { return len(v.Scalars) + bits.OnesCount8(v.has) }

// AppendScalar appends scalar item i (of NumScalars) to dst as the token it
// spells: a string of Scalars as it is, then the values in attribute order.
func (v *Vector) AppendScalar(dst []byte, i int) []byte {
	if i < len(v.Scalars) {
		return append(dst, v.Scalars[i]...)
	}
	has := v.has
	for range i - len(v.Scalars) {
		has &= has - 1 // past the values before item i
	}
	a := bits.TrailingZeros8(has)
	return strconv.AppendUint(append(dst, scalarAttrs[a].tag...), uint64(v.vals[a]), 10)
}

// MaxCached bounds the components cached per vector — as offsets inside it,
// not string headers on the heap: a 1 MiB path of two-byte components would
// hold 8 MiB of those, in no memory estimate, and even twelve per record
// raised a daemon's peak RSS by a sixth. Sim cuts a deeper path per call.
const MaxCached = 12

// AppendVector appends a vector — u32 scalar count, (u32 len, token) per
// scalar item, u32 path length, path — the encoding of the store's v/
// records. Values are spelled straight into dst.
func AppendVector(dst []byte, v *Vector) []byte {
	le := binary.LittleEndian
	n := v.NumScalars()
	dst = le.AppendUint32(dst, uint32(n))
	for i := range n {
		at := len(dst)
		dst = v.AppendScalar(le.AppendUint32(dst, 0), i)
		le.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	dst = le.AppendUint32(dst, uint32(len(v.Path)))
	return append(dst, v.Path...)
}

// ReadVector reads an AppendVector encoding. String lengths are bounded only
// by the bytes present; a caller facing the network bounds them further.
// Tokens as Extract writes them become values (see values). The path is not
// cut here: whoever stores a decoded vector calls Presplit.
func ReadVector(c *bin.Cursor) Vector {
	var v Vector
	if n := c.Count(4); n > 0 {
		v.Scalars = make([]string, n)
		for i := range v.Scalars {
			v.Scalars[i] = c.Str(int(c.U32()))
		}
		v.values()
	}
	v.Path = c.Str(int(c.U32()))
	return v
}

// values turns Scalars into values when they are a token list as Extract
// writes one — tags in scalarAttrs order, each at most once, canonical
// decimal below 2³² — the only lists that spell back to the same bytes. Any
// other list ("u:012", "u:7,u:7", "h:2,u:7", "x:1") keeps its strings.
func (v *Vector) values() {
	var vals [len(scalarAttrs)]uint32
	var has uint8
	for _, s := range v.Scalars {
		i, val, ok := spelling(s)
		if !ok || has>>i != 0 { // not a token, or not past the last one
			return
		}
		vals[i], has = val, has|1<<i
	}
	v.Scalars, v.vals, v.has = nil, vals, has
}

// PathAlg selects the path treatment.
type PathAlg uint8

// The two path algorithms from §3.2.1.
const (
	IPA PathAlg = iota // integrated path (paper's choice)
	DPA                // divided path
)

// String returns "IPA" or "DPA".
func (a PathAlg) String() string {
	if a == DPA {
		return "DPA"
	}
	return "IPA"
}

// component returns the bounds of p's first non-empty component at or after
// i: "/home//u" from 5 -> (7, 8). start is len(p) when there is none.
func component(p string, i int) (start, end int) {
	for i < len(p) && p[i] == '/' {
		i++
	}
	if j := strings.IndexByte(p[i:], '/'); j >= 0 {
		return i, i + j
	}
	return i, len(p)
}

// tag digests a component from its length and four of its bytes: equal
// components have equal tags, so unequal tags tell two apart unread. Equal
// tags (1 in 256, and whatever differs between the bytes sampled) say nothing.
func tag(c string) uint8 {
	n := len(c)
	h := uint32(c[0]) | uint32(c[n/2])<<8 | uint32(c[max(n-2, 0)])<<16 | uint32(c[n-1])<<24
	return uint8((h ^ uint32(n)*0x9E3779B1) * 0x85EBCA6B >> 24)
}

// Presplit caches where the path's components end and their tags, as Extract
// does, in a decoded vector — for whoever stores it, to be compared many
// times. A vector already cut is left alone.
func (v *Vector) Presplit() {
	if p := v.Path; v.cut == 0 && len(p) <= math.MaxUint16 {
		for s, e := component(p, 0); s < len(p); s, e = component(p, e) {
			if v.cut == MaxCached {
				v.ends, v.tags, v.cut = [MaxCached]uint16{}, [MaxCached]uint8{}, 0 // too deep to cache
				return
			}
			v.ends[v.cut], v.tags[v.cut] = uint16(e), tag(p[s:e])
			v.cut++
		}
	}
}

// shared counts leading components a and b have in common, uncut: where both
// cached ends and tags that agree, the paths need only agree bytewise that far.
func shared(a, b *Vector) int {
	k := 0
	for k < int(min(a.cut, b.cut)) && a.ends[k] == b.ends[k] && a.tags[k] == b.tags[k] {
		k++
	}
	for tries := 2; k > 0 && tries > 0; k, tries = k-1, tries-1 { // equal tags over unequal bytes are rare, two in a row rarer
		if e := a.ends[k-1]; a.Path[:e] == b.Path[:e] {
			return k
		}
	}
	return 0
}

// component returns component i of a cut path.
func (v *Vector) component(i int) string {
	start := 0
	if i > 0 {
		start = int(v.ends[i-1])
	}
	for v.Path[start] == '/' {
		start++
	}
	return v.Path[start:v.ends[i]]
}

// components appends the path's components from the given one on to buf,
// each a substring of the path ("/home//u/a/" -> home, u, a): read off the
// cached ends, or cut from the path when nobody cached them (from is then 0).
func (v *Vector) components(buf []string, from int) []string {
	if v.cut == 0 {
		p := v.Path
		for s, e := component(p, 0); s < len(p); s, e = component(p, e) {
			buf = append(buf, p[s:e])
		}
		return buf
	}
	for i := from; i < int(v.cut); i++ {
		buf = append(buf, v.component(i))
	}
	return buf
}

// intersect counts the items two lists share as multisets: a value occurring
// i times in a and j times in b counts min(i, j) times, whatever the order —
// each item of a claims one unclaimed equal item of b. More than the stack
// marks hold — a path deeper than any vector caches — goes through a map,
// O(n + m) where claiming is O(n·m) under a shard lock.
func intersect(a, b []string) int {
	n := 0
	var claimed [2 * MaxCached]bool
	if len(a)+len(b) > len(claimed) {
		left := make(map[string]int, len(a))
		for _, x := range a {
			left[x]++
		}
		for _, y := range b {
			if left[y] > 0 {
				left[y]--
				n++
			}
		}
		return n
	}
	for _, x := range a {
		for j, y := range b {
			if !claimed[j] && x == y {
				claimed[j] = true
				n++
				break
			}
		}
	}
	return n
}

// tokens counts what a's and b's values add to the items their strings ia
// and ib share as multisets, a value being the one item its token spells: a
// value both sides hold adds one whatever the strings (min(1+s, 1+t) −
// min(s, t)); one only one side holds adds one when the other side's strings
// spell it more often than its own (min(s, 1+t) − min(s, t)). With no
// strings only equal values count, and with no values nothing does.
func tokens(a, b *Vector, ia, ib []string) int {
	n := 0
	if a.has|b.has == 0 {
		return 0
	}
	if len(ia)+len(ib) == 0 {
		for i := range scalarAttrs {
			if a.has&b.has&(1<<i) != 0 && a.vals[i] == b.vals[i] {
				n++
			}
		}
		return n
	}
	vs := [2]*Vector{a, b}
	var spelled [2][2][len(scalarAttrs)]int // [side of the strings][side of the value][attribute]
	for x, strs := range [2][]string{ia, ib} {
		for _, s := range strs {
			if i, val, ok := spelling(s); ok {
				for y, v := range vs {
					if v.has&(1<<i) != 0 && v.vals[i] == val {
						spelled[x][y][i]++
					}
				}
			}
		}
	}
	for i := range scalarAttrs {
		if a.has&b.has&(1<<i) != 0 && a.vals[i] == b.vals[i] {
			n++
			continue
		}
		for y, v := range vs {
			if v.has&(1<<i) != 0 && spelled[1-y][y][i] > spelled[y][y][i] {
				n++
			}
		}
	}
	return n
}

// share is two item lists' similarity: shared over the longer one's length.
func share(inter float64, la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	return inter / float64(max(la, lb))
}

// pathIntersect counts the items a and b share and the items each has: the
// components of their paths, behind their scalars if those are asked for.
// Components shared at the head of both pair off uncut. Two cut paths alone
// are then counted in place, as intersect would: each component of a claims
// the first unclaimed one of b with its tag and then its bytes (which equal
// item is claimed never changes how many are). An uncut side, or DPA's scalar
// strings (which may equal components), is staged on the stack (over
// MaxCached + 4 a side: the heap), and DPA's values counted against it.
func pathIntersect(a, b *Vector, scalars bool) (inter float64, la, lb int) {
	k := shared(a, b)
	if a.cut != 0 && b.cut != 0 && !scalars {
		n := k
		var claimed [MaxCached]bool
		for i := k; i < int(a.cut); i++ {
			for j := k; j < int(b.cut); j++ {
				if a.tags[i] == b.tags[j] && !claimed[j] && a.component(i) == b.component(j) {
					claimed[j] = true
					n++
					break
				}
			}
		}
		return float64(n), int(a.cut), int(b.cut)
	}
	var bufA, bufB [MaxCached + 4]string
	ia, ib := bufA[:0], bufB[:0]
	if scalars {
		ia, ib = append(ia, a.Scalars...), append(ib, b.Scalars...)
	}
	ia, ib = a.components(ia, k), b.components(ib, k)
	n, la, lb := k+intersect(ia, ib), k+len(ia), k+len(ib)
	if scalars { // the shared head cancels: min(h+s, h+t) = h + min(s, t)
		n, la, lb = n+tokens(a, b, ia, ib), la+bits.OnesCount8(a.has), lb+bits.OnesCount8(b.has)
	}
	return float64(n), la, lb
}

// Sim computes the semantic distance sim(A,B) between two vectors under the
// given path algorithm (paper Function 1 + Table 2).
//
// DPA: every scalar and every path component is one item; the result is
// |A∩B| / max(|A|,|B|) over all items.
//
// IPA: every scalar is one item and the whole path is a single item whose
// intersection weight is pathSim, the multiset share of path components
// (/home/user1/paper/a vs /home/user1/paper/b: 3/4); the result is
// (|scalars(A)∩scalars(B)| + pathSim) / max(|A|,|B|) with |A| counting the
// path as one item.
func Sim(a, b *Vector, alg PathAlg) float64 {
	if alg == DPA {
		return share(pathIntersect(a, b, true))
	}
	la, lb := a.NumScalars(), b.NumScalars()
	if a.Path != "" {
		la++
	}
	if b.Path != "" {
		lb++
	}
	scalars := intersect(a.Scalars, b.Scalars) + tokens(a, b, a.Scalars, b.Scalars)
	return share(float64(scalars)+share(pathIntersect(a, b, false)), la, lb)
}
