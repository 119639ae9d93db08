package vsm

import (
	"math/bits"

	"farmer/internal/trace"
)

// Extractor is FARMER's Stage-1 component (paper §3.1): it turns a file
// request into the semantic vector for the requested file, restricted to the
// attributes enabled in the mask. The HUSt prototype calls this the
// "extractor" filter.
type Extractor struct {
	Mask Mask
	Alg  PathAlg
}

// NewExtractor returns an extractor for the given attribute combination
// using the paper's preferred IPA path handling.
func NewExtractor(mask Mask) *Extractor {
	return &Extractor{Mask: mask, Alg: IPA}
}

// Extract builds the semantic vector for a record: the values of its enabled
// scalar attributes, each an (attribute, value) item so that user 5 never
// equals process 5 — the paper's Table 1 shows attribute values as distinct
// namespaced entries — and the path, where its components end noted inside
// the vector. It allocates nothing.
func (e *Extractor) Extract(r *trace.Record) (v Vector) {
	e.ExtractInto(r, &v)
	return v
}

// ExtractInto is Extract in place of whatever v held, for a caller that keeps it.
func (e *Extractor) ExtractInto(r *trace.Record, v *Vector) {
	vals := [len(scalarAttrs)]uint32{r.UID, r.PID, r.Host, uint32(r.File), r.Dev}
	*v = Vector{}
	for i, sa := range scalarAttrs {
		if e.Mask.Has(sa.attr) {
			v.vals[i], v.has = vals[i], v.has|1<<i
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
		for set := uint(1); set < 1<<n; set++ {
			if bits.OnesCount(set) != size {
				continue
			}
			var m Mask
			for i := 0; i < n; i++ {
				if set&(1<<i) != 0 {
					m = m.With(attrs[i])
				}
			}
			out = append(out, m)
		}
	}
	return out
}
