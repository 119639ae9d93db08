package partition

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"farmer/internal/graph"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

func TestPartitionersDeterministicAndInRange(t *testing.T) {
	for _, part := range []struct {
		name string
		fn   Partitioner
	}{{"stripe", Stripe}, {"hash", Hash}, {"group", Group}} {
		for f := 0; f < 10000; f++ {
			for _, n := range []int{1, 2, 3, 4, 7} {
				a := part.fn(trace.FileID(f), n)
				b := part.fn(trace.FileID(f), n)
				if a != b || a < 0 || a >= n {
					t.Fatalf("%s partitioner broken: f=%d n=%d -> %d,%d", part.name, f, n, a, b)
				}
			}
		}
	}
}

func TestGroupCoLocatesAdjacentIDs(t *testing.T) {
	for base := 0; base < 1024; base += GroupSpan {
		want := Group(trace.FileID(base), 4)
		for off := 1; off < GroupSpan; off++ {
			if got := Group(trace.FileID(base+off), 4); got != want {
				t.Fatalf("file %d on partition %d, run base %d on %d", base+off, got, base, want)
			}
		}
	}
}

func testRecord(f trace.FileID) trace.Record {
	return trace.Record{File: f, Path: "/u/a/b", UID: 1, PID: 2}
}

// recorder captures every emitted event.
type recorder struct{ evs []Event }

func newDispatcher(owners int, part Partitioner) *Dispatcher {
	return NewDispatcher(Config{
		Owners:      owners,
		Partitioner: part,
		Mask:        vsm.AllPathMask,
		PathAlg:     vsm.IPA,
		Graph:       graph.DefaultConfig(),
	})
}

// fan dispatches one record to a single owner.
func fan(d *Dispatcher, owner *recorder, r *trace.Record) {
	d.Dispatch(r, func(_ int, ev Event) { owner.evs = append(owner.evs, ev) })
}

// TestDispatchLDACredits: the edge events for one record must mirror
// graph.Feed's linear decremented assignment — most recent predecessor
// first at credit 1.0, decremented per step, floored at MinAssign, window
// duplicates skipped.
func TestDispatchLDACredits(t *testing.T) {
	d := newDispatcher(1, nil)
	owner := &recorder{}
	for _, f := range []trace.FileID{10, 11, 12} {
		r := testRecord(f)
		fan(d, owner, &r)
	}
	owner.evs = nil
	r := testRecord(13)
	fan(d, owner, &r)

	if len(owner.evs) != 4 {
		t.Fatalf("events = %d, want access + 3 edges", len(owner.evs))
	}
	if !owner.evs[0].Access || owner.evs[0].Succ != 13 {
		t.Fatalf("first event not the access: %+v", owner.evs[0])
	}
	wantPred := []trace.FileID{12, 11, 10}
	wantCredit := []float64{1.0, 0.9, 0.8}
	for i, ev := range owner.evs[1:] {
		if ev.Access || ev.Pred != wantPred[i] || ev.Succ != 13 || ev.Credit != wantCredit[i] {
			t.Fatalf("edge %d = %+v, want pred %d credit %v", i, ev, wantPred[i], wantCredit[i])
		}
	}
}

func TestDispatchSkipsSelfAndTrimsWindow(t *testing.T) {
	d := newDispatcher(1, nil)
	owner := &recorder{}
	for _, f := range []trace.FileID{5, 5} {
		r := testRecord(f)
		fan(d, owner, &r)
	}
	edges := 0
	for _, ev := range owner.evs {
		if !ev.Access {
			edges++
		}
	}
	if edges != 0 {
		t.Fatalf("self-edge emitted: %d edge events", edges)
	}
	// Window never exceeds the normalized graph window.
	for f := trace.FileID(0); f < 20; f++ {
		r := testRecord(f)
		fan(d, owner, &r)
	}
	if w := len(d.window); w != d.gcfg.Window {
		t.Fatalf("window length %d, want %d", w, d.gcfg.Window)
	}
}

// TestEventsOfOneRecordShareOneVector: a record's access event and its edge
// events point at one vector — a fresh one from Dispatch, so events kept past
// the call (a mailbox, a test's slice) are unchanged by later dispatches; the
// caller's own from DispatchInto, whatever it held before — and an event is
// small enough to be passed around by value.
func TestEventsOfOneRecordShareOneVector(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 40 {
		t.Errorf("an Event is %d bytes, want at most 40: four are built, passed and appended per record", size)
	}
	d := newDispatcher(2, nil)
	paths := []string{"/u/a/b", "/u/a/c", "/v/x", "/u/a/b/deeper"}
	var kept [][]Event
	for i, p := range paths {
		r := trace.Record{File: trace.FileID(i), Path: p, UID: uint32(i), PID: 2}
		var evs []Event
		d.Dispatch(&r, func(_ int, ev Event) { evs = append(evs, ev) })
		kept = append(kept, evs)
	}
	var reused vsm.Vector
	for i, p := range paths { // the same stream once more, every record into one vector
		r := trace.Record{File: trace.FileID(i), Path: p, UID: uint32(i), PID: 2}
		n := 0
		d.DispatchInto(&r, &reused, func(_ int, ev Event) {
			if n++; ev.Vec != &reused {
				t.Errorf("record %d: DispatchInto emitted an event pointing at %p, not the caller's vector", i, ev.Vec)
			}
		})
		if want := vsm.NewExtractor(vsm.AllPathMask).Extract(&r); !reflect.DeepEqual(reused, want) {
			t.Errorf("record %d: DispatchInto left %+v in the caller's vector, want %+v", i, reused, want)
		}
		if n != 4 { // the window is full of other files this time round
			t.Errorf("record %d: DispatchInto emitted %d events, want its access and 3 edges", i, n)
		}
	}
	for i, evs := range kept {
		if len(evs) != 1+min(i, 3) {
			t.Fatalf("record %d emitted %d events, want its access and %d edges", i, len(evs), min(i, 3))
		}
		for _, ev := range evs {
			if ev.Vec != evs[0].Vec {
				t.Errorf("record %d: an event points at a vector of its own", i)
			}
		}
		if evs[0].Vec.Path != paths[i] || string(evs[0].Vec.AppendScalar(nil, 0)) != "u:"+strconv.Itoa(i) {
			t.Errorf("record %d: its events now carry %+v: a later dispatch wrote into a vector handed out", i, *evs[0].Vec)
		}
		for _, other := range kept[:i] {
			if other[0].Vec == evs[0].Vec {
				t.Errorf("record %d shares its vector with an earlier record", i)
			}
		}
	}
}

// TestDispatchRoutesByPartitioner: every event must land on the owner of
// the state it touches — owner(Succ) for access events, owner(Pred) for
// edge events — and sequence numbers must be contiguous from 1.
func TestDispatchRoutesByPartitioner(t *testing.T) {
	const owners = 4
	d := newDispatcher(owners, Hash)
	var seq uint64
	for f := trace.FileID(0); f < 200; f++ {
		r := testRecord(f % 37)
		got := d.Dispatch(&r, func(owner int, ev Event) {
			key := ev.Succ
			if !ev.Access {
				key = ev.Pred
			}
			if want := Hash(key, owners); owner != want {
				t.Fatalf("event %+v routed to %d, want %d", ev, owner, want)
			}
		})
		seq++
		if got != seq {
			t.Fatalf("sequence %d, want %d", got, seq)
		}
	}
	if d.Dispatched() != seq {
		t.Fatalf("Dispatched() = %d, want %d", d.Dispatched(), seq)
	}
	if d.Advance(3) != seq+3 {
		t.Fatalf("Advance did not extend the sequence")
	}
}

func TestDispatcherPanicsOnZeroOwners(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero owners")
		}
	}()
	NewDispatcher(Config{Owners: 0})
}
