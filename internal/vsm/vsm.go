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
	"slices"
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

	// comps caches Path's non-empty components (substrings of it), so that
	// comparing stored vectors walks no path. Derived state: nil — Sim cuts
	// the path itself — for a literal vector, a decoded one nobody stored,
	// and a path of no or more than MaxCached components.
	comps []string
}

// MaxCached bounds the components cached per vector. A path may be
// trace.MaxPathLen (1 MiB) of two-byte components, whose string headers
// would outweigh it eightfold and appear in no memory estimate; a deeper
// path than this is cut inside every Sim and retains nothing.
const MaxCached = 64

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

// cut returns the non-empty components of a slash path, each a substring of
// it: "/home//u/a/" -> home, u, a. They are appended to buf[:0]; past limit
// components cut gives up and returns nil.
func cut(buf []string, p string, limit int) []string {
	buf = buf[:0]
	for {
		for len(p) > 0 && p[0] == '/' {
			p = p[1:]
		}
		if p == "" {
			return buf
		}
		if len(buf) == limit {
			return nil
		}
		i := strings.IndexByte(p, '/')
		if i < 0 {
			return append(buf, p)
		}
		buf = append(buf, p[:i])
		p = p[i:]
	}
}

// Presplit caches the path's components in a vector that came out of a
// decoder — for whoever stores it, to be compared many times.
func (v *Vector) Presplit() {
	if v.comps != nil || v.Path == "" {
		return
	}
	var buf [MaxCached]string
	if comps := cut(buf[:], v.Path, MaxCached); len(comps) > 0 {
		v.comps = slices.Clone(comps)
	}
}

// intersect counts the items two lists share as multisets: a value occurring
// i times in a and j times in b counts min(i, j) times, whatever the order.
// Items equal at equal positions pair off first — exact, since taking one x
// from each side takes one from min(i, j), and nearly all there is to do
// between sibling files, which share every directory. Each item a has left
// then claims one unclaimed equal item of b.
func intersect(a, b []string) int {
	var few [2 * MaxCached]bool
	marks := few[:]
	if len(a)+len(b) > len(few) {
		marks = make([]bool, len(a)+len(b))
	}
	paired, claimed := marks[:len(a)], marks[len(a):] // items of a paired off, items of b claimed
	n := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			paired[i], claimed[i] = true, true
			n++
		}
	}
	for i, x := range a {
		if paired[i] {
			continue
		}
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
	var bufA, bufB [MaxCached]string
	return pathSim(cut(bufA[:], a, math.MaxInt), cut(bufB[:], b, math.MaxInt))
}

func pathSim(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(intersect(a, b)) / float64(max(len(a), len(b)))
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
	if (a.comps == nil && a.Path != "") || (b.comps == nil && b.Path != "") {
		// Nobody cut one of the paths: cut copies, on the stack up to
		// MaxCached components, and compare those.
		var bufA, bufB [MaxCached]string
		ca, cb := *a, *b
		if ca.comps == nil {
			ca.comps = cut(bufA[:], a.Path, math.MaxInt)
		}
		if cb.comps == nil {
			cb.comps = cut(bufB[:], b.Path, math.MaxInt)
		}
		return sim(&ca, &cb, alg)
	}
	return sim(a, b, alg)
}

// sim is Sim once both paths are cut.
func sim(a, b *Vector, alg PathAlg) float64 {
	la, lb := len(a.Scalars), len(b.Scalars)
	var inter float64
	if alg == DPA {
		var bufA, bufB [MaxCached]string // past these the items spill to the heap
		ia := append(append(bufA[:0], a.Scalars...), a.comps...)
		ib := append(append(bufB[:0], b.Scalars...), b.comps...)
		la, lb = len(ia), len(ib)
		inter = float64(intersect(ia, ib))
	} else {
		if a.Path != "" {
			la++
		}
		if b.Path != "" {
			lb++
		}
		inter = float64(intersect(a.Scalars, b.Scalars)) + pathSim(a.comps, b.comps)
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return min(inter/float64(max(la, lb)), 1)
}
