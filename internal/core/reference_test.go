package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"farmer/internal/graph"
	"farmer/internal/trace"
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
