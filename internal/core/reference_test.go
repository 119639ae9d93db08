package core

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"farmer/internal/graph"
	"farmer/internal/kvstore"
	"farmer/internal/partition"
	"farmer/internal/trace"
	"farmer/internal/tracegen"
	"farmer/internal/vsm"
)

// refPlaceCorrelator is Stage 4 as it shipped before the single-entry
// reposition: store the entry, re-sort the whole list, cut it. Kept as the
// oracle placeCorrelator is held to.
func refPlaceCorrelator(list []Correlator, idx int, entry Correlator, limit int) []Correlator {
	if idx >= 0 {
		list[idx] = entry
	} else {
		list = append(list, entry)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Degree != list[j].Degree {
			return list[i].Degree > list[j].Degree
		}
		return list[i].File < list[j].File
	})
	if limit > 0 && len(list) > limit {
		list = list[:limit]
	}
	return list
}

func indexOfFile(list []Correlator, f trace.FileID) int {
	return slices.IndexFunc(list, func(c Correlator) bool { return c.File == f })
}

func TestPlaceCorrelatorCases(t *testing.T) {
	c := func(f trace.FileID, d float64) Correlator { return Correlator{File: f, Degree: d, Sim: d, Freq: d} }
	files := func(list []Correlator) string {
		var out []trace.FileID
		for _, e := range list {
			out = append(out, e.File)
		}
		return fmt.Sprint(out)
	}
	for _, tc := range []struct {
		name  string
		list  []Correlator
		entry Correlator
		limit int
		want  string
	}{
		{"first entry", nil, c(7, 0.5), 16, "[7]"},
		{"append ranks last", []Correlator{c(1, 0.9), c(2, 0.8)}, c(3, 0.5), 16, "[1 2 3]"},
		{"append ranks first", []Correlator{c(1, 0.9), c(2, 0.8)}, c(3, 0.95), 16, "[3 1 2]"},
		{"equal degree: lower id first", []Correlator{c(2, 0.8), c(6, 0.8)}, c(4, 0.8), 16, "[2 4 6]"},
		{"equal degree: lowest id leads", []Correlator{c(2, 0.8), c(6, 0.8)}, c(1, 0.8), 16, "[1 2 6]"},
		{"update moves up past a tie", []Correlator{c(5, 0.8), c(9, 0.8), c(3, 0.6)}, c(3, 0.8), 16, "[3 5 9]"},
		{"update moves down", []Correlator{c(1, 0.9), c(2, 0.8), c(3, 0.7)}, c(1, 0.75), 16, "[2 1 3]"},
		{"update stays put", []Correlator{c(1, 0.9), c(2, 0.8), c(3, 0.7)}, c(2, 0.85), 16, "[1 2 3]"},
		{"full list: appended entry is the one cut", []Correlator{c(1, 0.9), c(2, 0.8)}, c(3, 0.5), 2, "[1 2]"},
		{"full list: appended entry displaces the tail", []Correlator{c(1, 0.9), c(2, 0.8)}, c(3, 0.85), 2, "[1 3]"},
		{"full list: tie with the tail loses on id", []Correlator{c(1, 0.9), c(2, 0.8)}, c(3, 0.8), 2, "[1 2]"},
		{"unbounded", []Correlator{c(1, 0.9)}, c(2, 0.1), 0, "[1 2]"},
	} {
		idx := indexOfFile(tc.list, tc.entry.File)
		got := placeCorrelator(slices.Clone(tc.list), idx, tc.entry, tc.limit)
		ref := refPlaceCorrelator(slices.Clone(tc.list), idx, tc.entry, tc.limit)
		if files(got) != tc.want || !slices.Equal(got, ref) {
			t.Errorf("%s: got %s, want %s (reference %s)", tc.name, files(got), tc.want, files(ref))
		}
	}
}

// TestPlaceCorrelatorMatchesSort: seeded random upserts with degrees drawn
// from four values, so most placements land among ties.
func TestPlaceCorrelatorMatchesSort(t *testing.T) {
	for _, limit := range []int{0, 1, 3, 16} {
		rng := rand.New(rand.NewPCG(13, uint64(limit)))
		var got, ref []Correlator
		for op := 0; op < 5000; op++ {
			entry := Correlator{File: trace.FileID(rng.IntN(24)), Degree: float64(5+rng.IntN(4)) / 10, Freq: rng.Float64()}
			got = placeCorrelator(got, indexOfFile(got, entry.File), entry, limit)
			ref = refPlaceCorrelator(ref, indexOfFile(ref, entry.File), entry, limit)
			if !slices.Equal(got, ref) {
				t.Fatalf("limit %d op %d: placing %+v gave\n%+v\nreference\n%+v", limit, op, entry, got, ref)
			}
		}
	}
}

// TestListDropsToEmpty: a list whose last entry falls to the threshold is
// removed outright — not left behind empty — and its owner hears of it.
func TestListDropsToEmpty(t *testing.T) {
	cfg := defaultFor(t, 1.0, 0.4) // pure semantic: R = sim
	cfg.Graph = graph.Config{Window: 1}
	m := New(cfg)
	changed := map[trace.FileID]int{}
	m.SetListChangeHook(func(f trace.FileID) { changed[f]++ })
	feed(m, []acc{{f: 0, uid: 1, pid: 1, host: 1}, {f: 1, uid: 1, pid: 1, host: 1}})
	if got := m.CorrelatorList(0); len(got) != 1 || got[0].File != 1 {
		t.Fatalf("list of 0 = %+v, want just file 1", got)
	}
	// File 1 comes back under another user, process and host: sim falls to 0.
	feed(m, []acc{{f: 0, uid: 1, pid: 1, host: 1}, {f: 1, uid: 2, pid: 2, host: 2}})
	if got := m.CorrelatorList(0); got != nil {
		t.Fatalf("list of 0 = %+v after its only entry fell to the threshold", got)
	}
	if st := m.Stats(); st.Lists != 1 || st.Correlators != 1 { // file 1's list [0] remains
		t.Fatalf("stats after the drop: %d lists, %d correlators, want 1 and 1", st.Lists, st.Correlators)
	}
	if changed[0] != 2 {
		t.Fatalf("list of 0 reported %d changes, want 2 (insert, drop)", changed[0])
	}
}

// refModel is Model as it shipped before a file's state became one record:
// three maps keyed by file id, a private graph.Graph holding the nodes (and
// its own copy of the window), and the dirty set a fourth map. Kept as the
// oracle the per-file record is held to — lists, vectors, nodes, checkpoint
// bytes and Stats, to the bit.
type refModel struct {
	cfg     Config
	winSize int
	ex      *vsm.Extractor
	g       *graph.Graph
	vectors map[trace.FileID]vsm.Vector
	lists   map[trace.FileID][]Correlator
	window  []trace.FileID
	fed     uint64
	dirtyOn bool
	dirty   map[trace.FileID]uint8
	changes map[trace.FileID]int // list-change notifications, per file

	emptied, tombstones int // lists dropped to empty; facets a delta deleted
}

func newRefModel(cfg Config) *refModel {
	ex := vsm.NewExtractor(cfg.Mask)
	ex.Alg = cfg.PathAlg
	return &refModel{
		cfg: cfg, winSize: cfg.Graph.Normalized().Window, ex: ex, g: graph.New(cfg.Graph),
		vectors: map[trace.FileID]vsm.Vector{}, lists: map[trace.FileID][]Correlator{}, changes: map[trace.FileID]int{},
	}
}

func (m *refModel) markDirty(f trace.FileID, bits uint8) {
	if m.dirtyOn {
		m.dirty[f] |= bits
	}
}

func (m *refModel) resetDirty() { m.dirtyOn, m.dirty = true, map[trace.FileID]uint8{} }

func (m *refModel) notifyListChange(f trace.FileID) {
	m.markDirty(f, facetList)
	m.changes[f]++
}

func (m *refModel) Feed(r *trace.Record) {
	v := m.ex.Extract(r)
	m.vectors[r.File] = v
	m.markDirty(r.File, facetVec)
	m.g.Feed(r.File)
	for _, pred := range m.window {
		if pred == r.File {
			continue
		}
		m.markDirty(pred, facetGraph)
		m.evaluateVec(pred, r.File, v)
	}
	m.window = append(m.window, r.File)
	if len(m.window) > m.winSize {
		m.window = slices.Delete(m.window, 0, 1)
	}
	m.fed++
}

func (m *refModel) ApplyEvents(evs []partition.Event) {
	for i := range evs {
		ev := &evs[i]
		if ev.Access {
			m.vectors[ev.Succ] = *ev.Vec
			m.markDirty(ev.Succ, facetVec)
			continue
		}
		if ev.Credit > 0 {
			m.g.Add(ev.Pred, ev.Succ, ev.Credit)
		}
		m.markDirty(ev.Pred, facetGraph)
		m.evaluateVec(ev.Pred, ev.Succ, *ev.Vec)
	}
}

func (m *refModel) evaluateVec(pred, succ trace.FileID, vs vsm.Vector) {
	vp, okP := m.vectors[pred]
	var sim float64
	if okP {
		sim = vsm.Sim(&vp, &vs, m.cfg.PathAlg)
	}
	freq := m.g.Frequency(pred, succ)
	degree := m.cfg.Weight*sim + (1-m.cfg.Weight)*freq
	list := m.lists[pred]
	idx := indexOfFile(list, succ)
	if degree <= m.cfg.MaxStrength {
		if idx >= 0 {
			list = append(list[:idx], list[idx+1:]...)
			if len(list) == 0 {
				delete(m.lists, pred)
				m.emptied++
			} else {
				m.lists[pred] = list
			}
			m.notifyListChange(pred)
		}
		return
	}
	m.lists[pred] = refPlaceCorrelator(list, idx, Correlator{File: succ, Degree: degree, Sim: sim, Freq: freq}, m.cfg.MaxCorrelators)
	m.notifyListChange(pred)
}

func (m *refModel) reset() {
	old := *m // every dropped list is a change, and the test's counts outlive the reset
	for f := range m.lists {
		old.changes[f]++
	}
	*m = *newRefModel(m.cfg)
	m.changes, m.emptied, m.tombstones = old.changes, old.emptied, old.tombstones
}

// node returns f's graph node in checkpoint shape — total, edges in
// ascending id order — and whether there is one.
func (m *refModel) node(f trace.FileID) (float64, []graph.Edge, bool) {
	edges := m.g.Successors(f) // nil without a node; a node has an edge
	slices.SortFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) })
	return m.g.Total(f), edges, edges != nil
}

// stage writes the reference's half of a checkpoint straight into a store:
// everything when full, else what its dirty map names, a facet the model no
// longer holds as the tombstone delete.
func (m *refModel) stage(t *testing.T, st *kvstore.Store, full bool) {
	t.Helper()
	put := func(prefix string, f trace.FileID, val []byte, present bool) {
		var err error
		if present {
			err = st.Put(key(prefix, f), val)
		} else {
			err = st.Delete(key(prefix, f))
			m.tombstones++
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stageFile := func(f trace.FileID, bits uint8) {
		if bits&facetList != 0 {
			list, ok := m.lists[f]
			put(keyPrefixList, f, AppendCorrelators(nil, list), ok)
		}
		if bits&facetVec != 0 {
			v, ok := m.vectors[f]
			put(keyPrefixVector, f, vsm.AppendVector(nil, &v), ok)
		}
		if bits&facetGraph != 0 {
			total, edges, ok := m.node(f)
			put(keyPrefixGraph, f, appendGraphValue(nil, total, edges), ok)
		}
	}
	if !full {
		for f, bits := range m.dirty {
			stageFile(f, bits)
		}
		return
	}
	for f := trace.FileID(0); f < refFileSpace; f++ {
		var bits uint8
		if _, ok := m.lists[f]; ok {
			bits |= facetList
		}
		if _, ok := m.vectors[f]; ok {
			bits |= facetVec
		}
		if _, _, ok := m.node(f); ok {
			bits |= facetGraph
		}
		stageFile(f, bits)
	}
}

func (m *refModel) stats() Stats {
	s := Stats{Fed: m.fed, TrackedFiles: len(m.vectors), Lists: len(m.lists), GraphNodes: m.g.Nodes(), GraphEdges: m.g.Edges()}
	for _, l := range m.lists {
		s.Correlators += len(l)
	}
	s.MemoryBytes = int64(s.GraphNodes)*64 + int64(s.GraphEdges)*16 + int64(s.Correlators)*32 + int64(s.Lists)*48
	for _, v := range m.vectors {
		s.MemoryBytes += 64 + int64(len(v.Path))
		for _, sc := range v.Scalars {
			s.MemoryBytes += int64(len(sc)) + 16
		}
	}
	return s
}

// refFileSpace bounds the file ids the oracle test uses, so that state can
// be compared — and a full checkpoint staged — by walking the id space.
const refFileSpace = 1 << 14

// refPair is a Model and its oracle driven in step, each checkpointing into
// a store of its own.
type refPair struct {
	t        *testing.T
	name     string
	got      *Model
	want     *refModel
	gotSt    *kvstore.Store
	wantSt   *kvstore.Store
	gotHooks map[trace.FileID]int
	saves    int
}

func newRefPair(t *testing.T, name string, cfg Config) *refPair {
	p := &refPair{t: t, name: name, got: New(cfg), want: newRefModel(cfg), gotHooks: map[trace.FileID]int{}}
	p.got.SetListChangeHook(func(f trace.FileID) { p.gotHooks[f]++ })
	for _, st := range []**kvstore.Store{&p.gotSt, &p.wantSt} {
		s, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		*st = s
	}
	return p
}

// check compares everything the two hold, then checkpoints both — in full
// the first time, the dirty delta after — and compares the stores.
func (p *refPair) check(at string) {
	p.t.Helper()
	fail := func(format string, args ...any) {
		p.t.Helper()
		p.t.Fatalf("%s, %s: "+format, append([]any{p.name, at}, args...)...)
	}
	got, want := p.got, p.want
	if g, w := got.Stats(), want.stats(); g != w {
		fail("Stats %+v, reference %+v", g, w)
	}
	if g, w := got.WindowTail(), want.window; !slices.Equal(g, w) && got.Fed() > 0 {
		fail("window %v, reference %v", g, w)
	}
	for f := trace.FileID(0); f < refFileSpace; f++ {
		if g, w := got.CorrelatorList(f), want.lists[f]; !slices.Equal(g, w) {
			fail("list of %d\n %+v, reference\n %+v", f, g, w)
		}
		gv, gok := got.Vector(f)
		wv, wok := want.vectors[f]
		if gok != wok || gv.Path != wv.Path || !slices.Equal(gv.Scalars, wv.Scalars) {
			fail("vector of %d %+v (%v), reference %+v (%v)", f, gv, gok, wv, wok)
		}
		var gn graph.Node
		gotNode := false
		if fp := got.files[f]; fp != nil && fp.have&facetGraph != 0 {
			gn, gotNode = fp.node, true
		}
		total, edges, wantNode := want.node(f)
		if gotNode != wantNode || gn.Total != total || !slices.Equal(gn.SortedByID(), edges) && wantNode {
			fail("node of %d %+v (%v), reference %v %+v (%v)", f, gn, gotNode, total, edges, wantNode)
		}
		if g, w := p.gotHooks[f], want.changes[f]; g != w {
			fail("list of %d changed %d times, reference %d", f, g, w)
		}
	}
	full := p.saves == 0
	if !full && got.DirtyFiles() != len(want.dirty) {
		fail("%d dirty files, reference %d", got.DirtyFiles(), len(want.dirty))
	}
	err := p.gotSt.Batch(func(b *kvstore.Batch) error {
		stg := stager{b: b}
		if full {
			stg.saved = make(savedKeys)
		}
		got.mu.Lock()
		defer got.mu.Unlock()
		defer got.resetDirtyLocked()
		return got.stageLocked(&stg)
	})
	if err != nil {
		fail("staging: %v", err)
	}
	want.stage(p.t, p.wantSt, full)
	want.resetDirty()
	p.saves++
	if g, w := storeContents(p.gotSt), storeContents(p.wantSt); !slices.Equal(g, w) {
		fail("checkpoint %d (full=%v) holds %d records, reference %d; first difference: %s", p.saves, full, len(g), len(w), firstDifference(g, w))
	}
}

func firstDifference(g, w [][2]string) string {
	for i := 0; i < len(g) || i < len(w); i++ {
		switch {
		case i >= len(g):
			return fmt.Sprintf("missing %v", w[i])
		case i >= len(w):
			return fmt.Sprintf("extra %v", g[i])
		case g[i] != w[i]:
			return fmt.Sprintf("%v, reference %v", g[i], w[i])
		}
	}
	return "none"
}

func (p *refPair) reset() {
	p.got.reset()
	p.want.reset()
	p.saves = 0 // a reset model checkpoints in full, into fresh stores
	for _, st := range []*kvstore.Store{p.gotSt, p.wantSt} {
		var keys [][]byte
		st.Scan(nil, nil, func(k, _ []byte) bool { keys = append(keys, slices.Clone(k)); return true })
		for _, k := range keys {
			if err := st.Delete(k); err != nil {
				p.t.Fatal(err)
			}
		}
	}
}

// TestModelMatchesReference drives the per-file record and the three-map
// oracle with the same input — the sequential Feed on HP, RES and INS
// traces, then ApplyEvents on a hostile mix — and compares lists, vectors,
// nodes, hook counts, every Stats field and the checkpointed c/ v/ g/ bytes
// (a full save, then deltas with their tombstones) every 256 records.
func TestModelMatchesReference(t *testing.T) {
	for _, prof := range []tracegen.Profile{tracegen.HP(6000), tracegen.RES(6000), tracegen.INS(6000)} {
		tr := prof.MustGenerate()
		if tr.FileCount > refFileSpace {
			t.Fatalf("%s: %d files exceed the compared id space %d", prof.Name, tr.FileCount, refFileSpace)
		}
		cfg := DefaultConfig()
		cfg.Mask = vsm.DefaultMask(tr.HasPaths)
		cfg.Graph.MaxSuccessors = 6 // nodes fill and evict
		cfg.MaxCorrelators = 4      // lists fill and cut
		p := newRefPair(t, prof.Name, cfg)
		for i := range tr.Records {
			p.got.Feed(&tr.Records[i])
			p.want.Feed(&tr.Records[i])
			if i%256 == 255 {
				p.check(fmt.Sprintf("record %d", i))
			}
		}
		p.check("end of trace")
	}

	// The hostile mix, as events: eight files whose attributes drift, so
	// similarity crosses the threshold both ways and lists drop to empty and
	// regrow; nodes of two successors, so every third credit evicts; a window
	// that often holds one predecessor twice; and between the dispatcher's
	// own events, ones it would never emit — no credit, a self edge, a
	// predecessor nobody accessed. A reset falls in the middle.
	for _, alg := range []vsm.PathAlg{vsm.IPA, vsm.DPA} {
		cfg := DefaultConfig()
		cfg.PathAlg = alg
		cfg.Weight, cfg.MaxStrength = 0.6, 0.45
		cfg.Graph = graph.Config{Window: 4, Decrement: 0.3, MaxSuccessors: 2}
		cfg.MaxCorrelators = 2
		p := newRefPair(t, "hostile mix "+alg.String(), cfg)
		d := partition.NewDispatcher(partition.Config{Owners: 1, Mask: cfg.Mask, PathAlg: alg, Graph: cfg.Graph})
		rng := rand.New(rand.NewPCG(16, uint64(alg)))
		apply := func(evs ...partition.Event) {
			p.got.ApplyEvents(slices.Clone(evs))
			p.want.ApplyEvents(slices.Clone(evs))
		}
		for i := 0; i < 6000; i++ {
			f := trace.FileID(rng.IntN(8))
			r := trace.Record{
				Seq: uint64(i), File: f, UID: uint32(rng.IntN(2)), PID: uint32(rng.IntN(2)), Host: uint32(rng.IntN(2)),
				Path: fmt.Sprintf("/d%d/s%d//f%d", rng.IntN(2), rng.IntN(2), f),
			}
			if rng.IntN(4) == 0 {
				r.File = d.Window()[max(len(d.Window())-2, 0):][0] // back to a file still in the window
			}
			var evs []partition.Event
			d.Dispatch(&r, func(_ int, ev partition.Event) { evs = append(evs, ev) })
			apply(evs...)
			switch vec := evs[0].Vec; rng.IntN(40) {
			case 0:
				apply(partition.Event{Pred: trace.FileID(rng.IntN(8)), Succ: f, Credit: 0, Vec: vec})
			case 1:
				apply(partition.Event{Pred: f, Succ: f, Credit: 1, Vec: vec})
			case 2:
				apply(partition.Event{Pred: trace.FileID(100 + rng.IntN(4)), Succ: f, Credit: 0.5, Vec: vec})
			case 3:
				apply(partition.Event{Pred: trace.FileID(200 + rng.IntN(4)), Succ: f, Credit: 0, Vec: vec})
			}
			if i%256 == 255 {
				p.check(fmt.Sprintf("record %d", i))
			}
			if i == 3100 {
				p.reset()
				d.ResetWindow()
				p.check("after the reset")
			}
		}
		p.check("end of mix")
		if w := p.want; w.emptied < 10 || w.tombstones < 10 || len(w.lists) == 0 {
			t.Fatalf("%s exercised too little: %d lists emptied, %d tombstones staged, %d lists at the end", p.name, w.emptied, w.tombstones, len(w.lists))
		}
		t.Logf("%s: %d lists emptied, %d tombstones staged", p.name, p.want.emptied, p.want.tombstones)
	}
}
