package vsm

import (
	"strconv"

	"farmer/internal/trace"
)

// Extractor is FARMER's Stage-1 component (paper §3.1): it turns a file
// request into the semantic vector for the requested file, restricted to the
// attributes enabled in the mask. The HUSt prototype calls this the
// "extractor" filter. Extract is single-writer: callers serialize around an
// Extractor, as every miner already does around its window.
type Extractor struct {
	Mask Mask
	Alg  PathAlg

	// tokens interns the scalar tokens ("u:12") this extractor has built,
	// keyed by attribute and value, and lists a record's whole scalar list,
	// keyed by its enabled attribute values, so a steady stream reuses one
	// list per distinct (user, process, host) instead of building one per
	// record. Caches of derivable strings, not mined state: at most
	// maxTokens entries each, forgotten by Reset.
	tokens map[uint64]string
	lists  map[[len(scalarAttrs)]uint32][]string
}

// maxTokens bounds an Extractor's intern tables. Users, processes and hosts
// number far fewer; file ids do not, and past the bound their tokens are
// simply built per record, as every token was before the table existed.
const maxTokens = 1 << 14

// NewExtractor returns an extractor for the given attribute combination
// using the paper's preferred IPA path handling.
func NewExtractor(mask Mask) *Extractor {
	return &Extractor{Mask: mask, Alg: IPA}
}

// Reset forgets the interned tokens and lists (a vector already out keeps
// its own: nothing writes to one).
func (e *Extractor) Reset() { e.tokens, e.lists = nil, nil }

// scalarAttrs lists the discrete attributes in vector order with their tags.
var scalarAttrs = [...]struct {
	attr Attr
	tag  string
}{{AttrUser, "u:"}, {AttrProcess, "p:"}, {AttrHost, "h:"}, {AttrFileID, "f:"}, {AttrDevice, "d:"}}

// token returns the namespaced token for one attribute value.
func (e *Extractor) token(i int, val uint32) string {
	key := uint64(i)<<32 | uint64(val)
	if s, ok := e.tokens[key]; ok {
		return s
	}
	s := scalarAttrs[i].tag + strconv.FormatUint(uint64(val), 10)
	if len(e.tokens) < maxTokens {
		if e.tokens == nil {
			e.tokens = make(map[uint64]string)
		}
		e.tokens[key] = s
	}
	return s
}

// Extract builds the semantic vector for a record. Scalar tokens are
// prefixed with their attribute tag so that, e.g., user 5 never collides
// with process 5 — the paper's Table 1 shows attribute values as distinct
// namespaced entries. Records that agree on every enabled value share one
// interned list (cap == len: an append copies, never writes into it) — but
// under a mask with the file id, where each file's list is its own, none is
// kept and asking the nil table is free. Where the path's components end is
// noted inside the vector: a record of a known tuple allocates nothing.
func (e *Extractor) Extract(r *trace.Record) (v Vector) {
	e.ExtractInto(r, &v)
	return v
}

// ExtractInto is Extract in place of whatever v held, for a caller that keeps it.
func (e *Extractor) ExtractInto(r *trace.Record, v *Vector) {
	vals := [len(scalarAttrs)]uint32{r.UID, r.PID, r.Host, uint32(r.File), r.Dev}
	for i, sa := range scalarAttrs {
		if !e.Mask.Has(sa.attr) {
			vals[i] = 0
		}
	}
	*v = Vector{Scalars: e.lists[vals]}
	if scalars := e.Mask.Without(AttrPath); v.Scalars == nil && scalars != 0 { // every attribute but the path is a scalar
		v.Scalars = make([]string, 0, scalars.Count())
		for i, sa := range scalarAttrs {
			if e.Mask.Has(sa.attr) {
				v.Scalars = append(v.Scalars, e.token(i, vals[i]))
			}
		}
		if !e.Mask.Has(AttrFileID) && len(e.lists) < maxTokens {
			if e.lists == nil {
				e.lists = make(map[[len(scalarAttrs)]uint32][]string)
			}
			e.lists[vals] = v.Scalars
		}
	}
	if e.Mask.Has(AttrPath) && r.Path != "" {
		v.Path = r.Path
		v.Presplit()
	}
}

// DefaultMask picks the natural full attribute combination for a trace:
// {User, Process, Host, File Path} when the trace has paths,
// {User, Process, Host, File ID} otherwise — matching how the paper treats
// HP/LLNL versus INS/RES.
func DefaultMask(hasPaths bool) Mask {
	if hasPaths {
		return AllPathMask
	}
	return AllFileIDMask
}

// Combinations enumerates all non-empty subsets of the given attributes in a
// stable order (by increasing popcount, then bit pattern), mirroring the
// paper's Fig. 5 table rows.
func Combinations(attrs []Attr) []Mask {
	n := len(attrs)
	var out []Mask
	for size := 1; size <= n; size++ {
		for bits := 1; bits < 1<<n; bits++ {
			if popcount(bits) != size {
				continue
			}
			var m Mask
			for i := 0; i < n; i++ {
				if bits&(1<<i) != 0 {
					m = m.With(attrs[i])
				}
			}
			out = append(out, m)
		}
	}
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
