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

// Without returns a copy of the mask with the attribute disabled.
func (m Mask) Without(a Attr) Mask { return m &^ (1 << a) }

// Count reports how many attributes are enabled.
func (m Mask) Count() int {
	n := 0
	for a := Attr(0); a < NumAttrs; a++ {
		if m.Has(a) {
			n++
		}
	}
	return n
}

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

// Vector is a file's semantic vector. Scalar items (user, process, host,
// file id, device) are discrete tokens; Path is kept separately because DPA
// and IPA treat it differently. A vector is not modified once it is built:
// Extract and Presplit cut the path beside it, and Sim trusts the cut.
type Vector struct {
	Scalars []string // discrete attribute items, e.g. "u:12", "p:344"
	Path    string   // full path, or "" when the trace has no paths

	// ends caches where Path's non-empty components end (component i lies
	// between the slashes after ends[i-1] and ends[i]; unused slots hold 0),
	// tags a digest of each and cut their number, so that comparing stored
	// vectors scans no path and reads no bytes a digest tells apart. Derived
	// state, all zero — Sim cuts the path itself — for a literal or decoded
	// vector and a path of no or over MaxCached components or 64 KiB.
	ends [MaxCached]uint16
	tags [MaxCached]uint8
	cut  uint8
}

// MaxCached bounds the components cached per vector — as offsets inside it,
// not string headers on the heap: a 1 MiB path of two-byte components would
// hold 8 MiB of those, in no memory estimate, and even twelve per record
// raised a daemon's peak RSS by a sixth. Sim cuts a deeper path per call.
const MaxCached = 12

// AppendVector appends a vector — u32 scalar count, (u32 len, bytes) per
// scalar, u32 path length, path — the one encoding behind the store's v/
// records and the vector a wire event ships.
func AppendVector(dst []byte, v *Vector) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(v.Scalars)))
	for _, sc := range v.Scalars {
		dst = le.AppendUint32(dst, uint32(len(sc)))
		dst = append(dst, sc...)
	}
	dst = le.AppendUint32(dst, uint32(len(v.Path)))
	return append(dst, v.Path...)
}

// ReadVector reads an AppendVector encoding. String lengths are bounded only
// by the bytes present; a caller facing the network bounds them further. The
// path is not cut here: most decoded vectors are compared once, and whoever
// stores one calls Presplit.
func ReadVector(c *bin.Cursor) Vector {
	var v Vector
	if n := c.Count(4); n > 0 {
		v.Scalars = make([]string, n)
		for i := range v.Scalars {
			v.Scalars[i] = c.Str(int(c.U32()))
		}
	}
	v.Path = c.Str(int(c.U32()))
	return v
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
// each item of a claims one unclaimed equal item of b. A list against itself
// (two vectors of one Extractor's interned scalars) shares every item; more
// than the stack marks hold — a path deeper than any vector caches — goes
// through a map, O(n + m) where claiming is O(n·m) under a shard lock.
func intersect(a, b []string) int {
	if len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] {
		return len(a)
	}
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

// PathSimilarity is the component-wise similarity of two paths used by IPA:
// |components(A) ∩ components(B)| / max component count, counting multiset
// intersection. The paper's Table 2 example: /home/user1/paper/a vs
// /home/user1/paper/b -> 3/4 = 0.75.
func PathSimilarity(a, b string) float64 {
	return share(pathIntersect(&Vector{Path: a}, &Vector{Path: b}, false))
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
// item is claimed never changes how many are). An uncut side, or DPA's scalars
// (which may equal components), is staged on the stack (over MaxCached + 4 a
// side: the heap).
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
	return float64(k + intersect(ia, ib)), k + len(ia), k + len(ib)
}

// Sim computes the semantic distance sim(A,B) between two vectors under the
// given path algorithm (paper Function 1 + Table 2).
//
// DPA: every scalar and every path component is one item; the result is
// |A∩B| / max(|A|,|B|) over all items.
//
// IPA: every scalar is one item and the whole path is a single item whose
// intersection weight is PathSimilarity(A.Path, B.Path); the result is
// (|scalars(A)∩scalars(B)| + pathSim) / max(|A|,|B|) with |A| counting the
// path as one item.
func Sim(a, b *Vector, alg PathAlg) float64 {
	if alg == DPA {
		return share(pathIntersect(a, b, true))
	}
	la, lb := len(a.Scalars), len(b.Scalars)
	if a.Path != "" {
		la++
	}
	if b.Path != "" {
		lb++
	}
	return share(float64(intersect(a.Scalars, b.Scalars))+share(pathIntersect(a, b, false)), la, lb)
}
