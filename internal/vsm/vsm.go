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
// and IPA treat it differently.
type Vector struct {
	Scalars []string // discrete attribute items, e.g. "u:12", "p:344"
	Path    string   // full path, or "" when the trace has no paths
}

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
// by the bytes present; a caller facing the network bounds them further.
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

// nextComponent returns the first non-empty component of a slash path and
// the unread remainder: "/home/u/a" -> ("home", "/u/a"). Empty components
// are skipped; comp is "" once the path is exhausted. Both results are
// substrings of p, so walking a path allocates nothing.
func nextComponent(p string) (comp, rest string) {
	for len(p) > 0 && p[0] == '/' {
		p = p[1:]
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, ""
}

// PathSimilarity is the component-wise similarity of two paths used by IPA:
// |components(A) ∩ components(B)| / max component count, counting multiset
// intersection. The paper's Table 2 example: /home/user1/paper/a vs
// /home/user1/paper/b -> 3/4 = 0.75.
func PathSimilarity(a, b string) float64 {
	inter, la, lb := multisetIntersection(nil, a, nil, b)
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / float64(max(la, lb))
}

// itemScratch is how many items of one side multisetIntersection stages on
// the stack. Three scalars plus a path 29 directories deep fit; a longer
// vector spills to the heap through append and is counted the same way.
const itemScratch = 32

// multisetIntersection counts the items two vectors share, each side's
// items being its scalars followed by the components of its path ("" for no
// path), and reports how many items each side has. Side B is staged once in
// a scratch list; every item of A then claims — and removes — one equal
// item of B, so a value occurring i times in A and j times in B counts
// min(i, j) times, whatever the order.
func multisetIntersection(sa []string, pa string, sb []string, pb string) (inter, la, lb int) {
	var scratch [itemScratch]string
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
		if a.Path != "" && b.Path != "" {
			inter += PathSimilarity(a.Path, b.Path)
		}
	}
	s := inter / float64(max(la, lb))
	if s > 1 {
		s = 1
	}
	return s
}
